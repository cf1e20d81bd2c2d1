package network

// DecodeCounted decodes data as DecodeResults does and also returns how
// many object members the decoder read by predicting the writer's next key
// and how many it read by key.
func DecodeCounted(data []byte) (r *Results, predicted, keyed int, err error) {
	r, d := new(Results), decoder{data: data}
	d.results(r)
	return r, d.predicted, d.keyed, d.err
}
