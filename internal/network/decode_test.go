package network_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"eend"
	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/metrics"
	"eend/internal/network"
	"eend/internal/radio"
)

// plainResults is Results without its methods: decoding into it is
// encoding/json's own reflective decode of the schema, the reference the
// hand-written decoder must agree with.
type plainResults network.Results

func reference(data []byte) (*network.Results, error) {
	var p plainResults
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return (*network.Results)(&p), nil
}

// paperStacks are the six stacks of the paper's Section 5 grid.
var paperStacks = map[string][]eend.StackOption{
	"dsr-active":    {eend.DSR, eend.AlwaysActive},
	"dsr-odpm":      {eend.DSR, eend.ODPM},
	"mtprplus-odpm": {eend.MTPRPlus, eend.ODPM},
	"dsrh-odpm":     {eend.DSRHNoRate, eend.ODPM},
	"dsdvh-odpm":    {eend.DSDVH, eend.ODPM},
	"titan-pc-odpm": {eend.TITAN, eend.ODPM, eend.PowerControl()},
}

// realResults simulates one paper-grid point.
func realResults(t testing.TB, stack []eend.StackOption, nodes int, extra ...eend.Option) *network.Results {
	t.Helper()
	opts := append([]eend.Option{
		eend.WithSeed(uint64(nodes)), eend.WithNodes(nodes), eend.WithStack(stack...),
		eend.WithRandomFlows(4, 4096, 128), eend.WithDuration(40 * time.Second),
	}, extra...)
	sc, err := eend.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shuffled re-emits a JSON value with the keys of every object, at every
// nesting level, in a random order and with stray whitespace. Scalars are
// copied as written, so every number literal survives.
func shuffled(t testing.TB, raw []byte, rng *rand.Rand) []byte {
	t.Helper()
	var out bytes.Buffer
	switch raw = bytes.TrimSpace(raw); raw[0] {
	case '{':
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out.WriteString("{ ")
		for i, k := range keys {
			if i > 0 {
				out.WriteString(" ,\t")
			}
			name, _ := json.Marshal(k)
			out.Write(name)
			out.WriteString(" :\n")
			out.Write(shuffled(t, m[k], rng))
		}
		out.WriteString("\r}")
	case '[':
		var a []json.RawMessage
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Fatal(err)
		}
		out.WriteString("[")
		for i, v := range a {
			if i > 0 {
				out.WriteString(", ")
			}
			out.Write(shuffled(t, v, rng))
		}
		out.WriteString(" ]")
	default:
		out.Write(raw)
	}
	return out.Bytes()
}

// agree fails unless DecodeResults and the reference decode of data accept
// it and produce the same value.
func agree(t *testing.T, data []byte) *network.Results {
	t.Helper()
	want, err := reference(data)
	if err != nil {
		t.Fatalf("encoding/json rejects the payload: %v", err)
	}
	got, err := network.DecodeResults(data)
	if err != nil {
		t.Fatalf("DecodeResults: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoders disagree:\n got %+v\nwant %+v", got, want)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints disagree")
	}
	return got
}

// TestDecodeResultsEquivalence decodes real results of every paper stack,
// in every shape a payload can legally take, with both decoders.
func TestDecodeResultsEquivalence(t *testing.T) {
	payloads := map[string]*network.Results{
		"zero":          {},
		"no-nodes":      {Stack: "DSR-Active", Duration: time.Minute, Sent: 3, DeliveryRatio: 1. / 3},
		"empty-summary": {Replicates: &metrics.Summary{}, Lifetime: &network.Lifetime{FirstDepleted: -1}},
	}
	for name, stack := range paperStacks {
		for _, nodes := range []int{20, 50} {
			payloads[fmt.Sprintf("%s/%d", name, nodes)] = realResults(t, stack, nodes)
		}
		payloads[name+"/20/battery+replicates"] = realResults(t, stack, 20, eend.WithBattery(30), eend.WithReplicates(2))
	}
	payloads["dsr-odpm/50/battery"] = realResults(t, paperStacks["dsr-odpm"], 50, eend.WithBattery(30))
	payloads["titan-pc-odpm/50/replicates"] = realResults(t, paperStacks["titan-pc-odpm"], 50, eend.WithReplicates(3))

	for name, res := range payloads {
		t.Run(name, func(t *testing.T) {
			compact, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := agree(t, compact); !reflect.DeepEqual(got, res) {
				t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, res)
			}
			writerAgrees(t, res)
			indented, _ := json.MarshalIndent(res, " ", "\t")
			agree(t, indented)
			rng := rand.New(rand.NewPCG(1, uint64(len(compact))))
			agree(t, shuffled(t, compact, rng))

			// An unknown key holding a nested object, at three levels.
			future := `"future":{"a":[1,{"b":null,"c":[]}],"d":"x\"y","e":-1.5e+3,"f":true},`
			unknown := bytes.Replace(compact, []byte(`{`), []byte(`{`+future), 1)
			unknown = bytes.ReplaceAll(unknown, []byte(`"pos":{`), []byte(`"pos":{`+future))
			unknown = bytes.ReplaceAll(unknown, []byte(`"energy":{`), []byte(`"energy":{`+future))
			agree(t, unknown)

			// A stack label that needs escaping, and one that is not ASCII.
			for _, label := range []string{"TITAN \"pc\"\\\n<odpm>", "DSR-é\u2028", "bad\xffutf8"} {
				relabelled := *res
				relabelled.Stack = label
				data, _ := json.Marshal(&relabelled)
				agree(t, data)
				writerAgrees(t, &relabelled)
			}
		})
	}
}

// TestDecodeResultsCorners pins the places where a hand-written decoder
// most easily drifts from encoding/json: null, repeated keys, case folding,
// escaped keys, number edge cases.
func TestDecodeResultsCorners(t *testing.T) {
	for _, doc := range []string{
		`null`, `{}`, " \t\r\n{ } \n", `{"per_node":null}`, `{"per_node":[]}`, `{"per_node":[],"sent":1}`,
		`{"stack":null,"sent":null,"energy":null,"relays":null,"delivery_ratio":null,"lifetime":null,"replicates":null}`,
		`{"per_node":[null,{"final_mode":null,"pos":null},{"final_mode":"PSM"}]}`,
		`{"sent":1,"sent":2,"energy":{"rx_j":1},"energy":{"idle_j":2}}`,
		`{"per_node":[{"id":1,"sent":5},{"id":2}],"per_node":[{"forwarded":9}]}`,
		`{"per_node":[{"id":1},{"id":2},{"id":3}],"per_node":[{"sent":1}],"per_node":[{},{},{"delivered":4},{}]}`,
		`{"per_node":[{"id":1}],"per_node":[]}`, `{"per_node":[{"id":1}],"per_node":null,"per_node":[{"sent":2}]}`,
		`{"lifetime":{"depleted":2},"lifetime":{"battery_j":5}}`,
		`{"STACK":"x","Sent":3,"Per_Node":[{"ID":4,"Final_Mode":"AM","POS":{"X":1}}],"MAC":{"RETRIES":2}}`,
		`{"\u0073tack":"y","ſtack":"z","ſent":7,"stac\u212a":"kelvin","Stac\u212a":"k2"}`,
		`{"stack":"a","Stack":"b"}`, `{"Stack":"b","stack":"a"}`, `{"stack ":"no","":"empty key"}`,
		`{"delivery_ratio":1e-400,"delivered_bits":-0,"energy_goodput":0.1E+2,"tx_energy_j":123456789012345678901234567890123456789}`,
		`{"duration_ns":-5,"relays":-0,"events":18446744073709551615,"sent":0}`,
		`{"unknown":[1,2,{"a":"\u00e9\ud83d\ude00"}],"more":{"x":{"y":{"z":[[[]]]}}},"t":true,"f":false,"n":null}`,
		`{"stack":"\u0041\n","per_node":[{"final_mode":"\u0041M"}]}`,
		`{"replicates":{"n":2,"seeds":[1,2],"sent":{"mean":1.5,"ci95":0.25}}}`,
	} {
		agree(t, []byte(doc))
	}
}

// TestDecodeResultsPredictsWriterLayout pins the member loop's fast path
// to the writer: decoding the writer's own output of every paper stack,
// compact or indented, reads every member by prediction, except one by key
// after each run of optional keys the writer omitted. A writer change that
// reorders or renames a key fails here instead of silently taking the
// keyed path.
func TestDecodeResultsPredictsWriterLayout(t *testing.T) {
	extra := realResults(t, paperStacks["titan-pc-odpm"], 20, eend.WithBattery(30), eend.WithReplicates(2))
	for name, stack := range paperStacks {
		for _, nodes := range []int{20, 50} {
			res := realResults(t, stack, nodes)
			for shape := range 8 {
				v := *res
				v.Lifetime, v.Replicates = nil, nil
				if shape&1 != 0 {
					v.Lifetime = extra.Lifetime
				}
				if shape&2 != 0 {
					v.Replicates = extra.Replicates
				}
				if shape&4 != 0 {
					v.PerNode = nil
				}
				// events is always written; an optional key read after one the
				// writer omitted is the only miss.
				want, prev := 0, true
				for _, present := range []bool{v.Lifetime != nil, v.Replicates != nil, len(v.PerNode) > 0} {
					if present && !prev {
						want++
					}
					prev = present
				}
				for _, indent := range []bool{false, true} {
					w := network.Writer{Indent: indent}
					w.Results(&v)
					got, predicted, keyed, err := network.DecodeCounted(w.Buf)
					if err != nil || !reflect.DeepEqual(got, &v) {
						t.Fatalf("%s/%d/shape %d/indent %v: round trip failed (%v)", name, nodes, shape, indent, err)
					}
					if keyed != want || predicted == 0 {
						t.Errorf("%s/%d/shape %d/indent %v: %d members read by prediction and %d by key, want %d by key",
							name, nodes, shape, indent, predicted, keyed, want)
					}
				}
			}
		}
	}
}

// fallbackCases are documents off the writer's layout, each a small edit
// of one it writes: every way a member can miss the predicted key, and the
// integer literals around the direct reader's limits, in every integer
// kind of the schema.
func fallbackCases() []struct{ name, doc string } {
	data, err := json.Marshal(&network.Results{
		Stack: "DSR-ODPM", Duration: 40 * time.Second, Sent: 12, Delivered: 9, DeliveryRatio: 0.75,
		Energy: radio.Breakdown{Rx: 1.25, Idle: 30.5}, Relays: 2, Events: 1234,
		PerNode: []network.NodeResults{
			{ID: 3, Pos: geom.Point{X: 1.5, Y: 2}, Energy: radio.Breakdown{Rx: 0.25}, Sent: 5, FinalMode: mac.AM},
			{ID: 4, Delivered: 4, FinalMode: mac.PSM},
		},
	})
	if err != nil {
		panic(err)
	}
	base := string(data)
	cases := []struct{ name, doc string }{
		{"writer", base},
		{"reordered", strings.Replace(strings.Replace(base, `"sent":12,`, ``, 1), `"per_node"`, `"sent":12,"per_node"`, 1)},
		{"reordered-node", strings.Replace(base, `"id":3,"pos":{"x":1.5,"y":2}`, `"pos":{"y":2,"x":1.5},"id":3`, 1)},
		{"spaces", strings.ReplaceAll(strings.ReplaceAll(base, ",", " ,\n "), `":`, `" :`+"\t")},
		{"duplicate", strings.Replace(base, `"delivered":9,`, `"delivered":9,"sent":99,`, 1)},
		{"case-folded", strings.ReplaceAll(base, `"rx_j"`, `"RX_J"`)},
		{"unknown", strings.ReplaceAll(base, `"rx_j":`, `"future":[1,{"a":null}],"rx_j":`)},
		{"escaped", strings.ReplaceAll(base, `"rx_j"`, `"rx\u005fj"`)},
		{"missing", strings.Replace(strings.Replace(base, `"delivered":9,`, ``, 1), `"pos":{"x":1.5,"y":2},`, ``, 1)},
	}
	number := regexp.MustCompile(`-?[0-9]+$`)
	set := func(key, lit string) string {
		at := strings.Index(base, `"`+key+`":`) + len(key) + 3
		end := at + len(number.FindString(base[at:at+strings.IndexAny(base[at:], ",}")]))
		return base[:at] + lit + base[end:]
	}
	for _, lit := range []string{"0", "00", "01", "-0", "999999999999999999", "123456789012345678",
		"1234567890123456789", "9999999999999999999", "12345678901234567890",
		"18446744073709551615", "9223372036854775807", "9223372036854775808"} {
		for _, key := range []string{"sent", "duration_ns", "relays", "id"} { // uint64, int64, int, int
			cases = append(cases, struct{ name, doc string }{key + "=" + lit, set(key, lit)})
		}
	}
	for _, lit := range []string{"1e3", "1.0", "-1"} {
		cases = append(cases, struct{ name, doc string }{"sent=" + lit, set("sent", lit)})
	}
	return cases
}

// TestDecodeResultsFallback: off the writer's layout, and at the direct
// integer reader's limits, the decoder gives encoding/json's answer — the
// same value, or an error where it has one.
func TestDecodeResultsFallback(t *testing.T) {
	for _, c := range fallbackCases() {
		want, werr := reference([]byte(c.doc))
		got, gerr := network.DecodeResults([]byte(c.doc))
		switch {
		case (werr == nil) != (gerr == nil):
			t.Errorf("%s: DecodeResults says %v, encoding/json says %v\n%s", c.name, gerr, werr, c.doc)
		case werr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s: decoders disagree:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// TestDecodeResultsRejects feeds both decoders documents that are not a
// Results: each must be an error in both, never a panic.
func TestDecodeResultsRejects(t *testing.T) {
	reject := func(doc []byte) {
		t.Helper()
		if _, err := reference(doc); err == nil {
			t.Fatalf("encoding/json accepts %q; the case proves nothing", doc)
		}
		if res, err := network.DecodeResults(doc); err == nil {
			t.Fatalf("DecodeResults accepted %q as %+v", doc, res)
		}
	}
	payload, err := json.Marshal(realResults(t, paperStacks["titan-pc-odpm"], 20, eend.WithBattery(30), eend.WithReplicates(2)))
	if err != nil {
		t.Fatal(err)
	}
	for n := range len(payload) {
		reject(payload[:n])
	}
	reject(append(payload[:len(payload):len(payload)], " x"...))
	reject(append(payload[:len(payload):len(payload)], payload...))
	for _, doc := range []string{
		``, ` `, `[]`, `5`, `"x"`, `true`, `nul`, `nulll`, `{} {}`, `{,}`, `{"sent":1,}`, `{"sent" 1}`, `{sent:1}`,
		`{"sent":1.5}`, `{"sent":1e2}`, `{"sent":-1}`, `{"sent":"1"}`, `{"sent":18446744073709551616}`,
		`{"relays":9223372036854775808}`, `{"duration_ns":1.0}`, `{"duration_ns":-9223372036854775809}`,
		`{"sent":01}`, `{"sent":+1}`, `{"sent":0x10}`, `{"sent":1_000}`, `{"delivery_ratio":.5}`, `{"delivery_ratio":1.}`,
		`{"delivery_ratio":1e}`, `{"delivery_ratio":1e400}`, `{"delivery_ratio":NaN}`, `{"delivery_ratio":-}`,
		`{"stack":5}`, `{"stack":"a` + "\n" + `b"}`, `{"stack":"\x"}`, `{"stack":"\u12"}`, `{"stack":"abc}`, `{"stack":"abc\"}`,
		`{"energy":5}`, `{"energy":[]}`, `{"per_node":{}}`, `{"per_node":[1]}`, `{"per_node":[{}`, `{"per_node":[{},]}`,
		`{"per_node":[{"final_mode":"XX"}]}`, `{"per_node":[{"final_mode":""}]}`, `{"per_node":[{"final_mode":1}]}`,
		`{"per_node":[{"final_mode":"am"}]}`, `{"lifetime":5}`, `{"lifetime":{"depleted":"x"}}`, `{"replicates":[]}`,
		`{"unknown":tru}`, `{"unknown":[1 2]}`, `{"unknown":{"a"}}`, `{"unknown":"\ud800\q"}`, "{\"unknown\":\"\x01\"}",
		"{\"sent\":1}\x00", `{"Sent":-1}`, `{null:1}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		reject([]byte(doc))
	}
	// One level shallower is inside encoding/json's depth limit.
	agree(t, []byte(`{"x":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`}`))
}

// TestDecodeResultsAllocs: the Results, its per_node slice and its stack
// label are all a canonical entry allocates, however many nodes it holds.
func TestDecodeResultsAllocs(t *testing.T) {
	data, err := json.Marshal(realResults(t, paperStacks["titan-pc-odpm"], 50))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := network.DecodeResults(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding a 50-node entry costs %.0f allocations, want at most 4", allocs)
	}
	res, err := network.DecodeResults(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, encode := range map[string]func(){
		"MarshalJSON": func() { _, _ = res.MarshalJSON() }, // the copy it returns
		"Fingerprint": func() { _ = res.Fingerprint() },    // the hex string
	} {
		if allocs := testing.AllocsPerRun(50, encode); allocs > 1 && !raceEnabled {
			t.Errorf("%s of a 50-node entry costs %.0f allocations, want at most 1", name, allocs)
		}
	}
}

// writerAgrees fails unless the writer encodes res byte for byte as
// encoding/json encodes the method-less alias: compact as json.Marshal,
// and indented as json.Encoder under SetIndent("", "  "), alone and nested
// two levels deep beside an empty object.
func writerAgrees(t testing.TB, res *network.Results) {
	t.Helper()
	want, err := json.Marshal((*plainResults)(res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalJSON()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON (%v):\n got %s\nwant %s", err, got, want)
	}
	if sum := sha256.Sum256(want); res.Fingerprint() != hex.EncodeToString(sum[:]) {
		t.Fatal("Fingerprint is not the SHA-256 of the encoding")
	}
	indented := func(v any) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	w := network.Writer{Indent: true}
	w.Results(res)
	if want := indented((*plainResults)(res)); !bytes.Equal(append(w.Buf, '\n'), want) {
		t.Fatalf("indented:\n got %s\nwant %s", w.Buf, want)
	}
	w.Reset(true)
	w.Open('{')
	w.Key("results")
	w.Open('[')
	w.Elem()
	w.Results(res)
	w.Elem()
	w.Open('{')
	w.Close('}')
	w.Close(']')
	w.Close('}')
	nested := struct {
		Results []any `json:"results"`
	}{[]any{(*plainResults)(res), struct{}{}}}
	if want := indented(nested); !bytes.Equal(append(w.Buf, '\n'), want) {
		t.Fatalf("nested:\n got %s\nwant %s", w.Buf, want)
	}
}

// TestWriterCorners pins the float formats at encoding/json's switches
// between 'f' and 'e', the exponent cleanup, strings it escapes, the
// omitempty fields set but empty, and the error on a non-finite value.
func TestWriterCorners(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21,
		1e-7, 1.5e-9, 1e-10, 2e-300, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789, 0.1, 1. / 3} {
		res := &network.Results{DeliveryRatio: f, Energy: radio.Breakdown{Idle: -f}, Stack: "a<b>&c\u2028\x01\b\f"}
		res.PerNode = []network.NodeResults{{Pos: geom.Point{X: f}, FinalMode: mac.PowerMode(7)}}
		res.Replicates = &metrics.Summary{Seeds: []uint64{}}
		writerAgrees(t, res)
	}
	writerAgrees(t, &network.Results{PerNode: []network.NodeResults{}, Lifetime: &network.Lifetime{}})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &network.Results{PerNode: []network.NodeResults{{Pos: geom.Point{Y: f}}}}
		if _, err := res.MarshalJSON(); err == nil {
			t.Errorf("MarshalJSON encodes %v", f)
		}
		if _, err := json.Marshal(res); err == nil {
			t.Errorf("json.Marshal encodes %v", f)
		}
	}
}

// TestCopyIsDeep: a copy equals its original and shares no memory with it.
func TestCopyIsDeep(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for range 200 {
		data := make([]byte, rng.IntN(300))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		copyAgrees(t, generated(data))
	}
	copyAgrees(t, &network.Results{PerNode: []network.NodeResults{}, Replicates: &metrics.Summary{}})
}

func copyAgrees(t testing.TB, res *network.Results) {
	t.Helper()
	cp := network.Copy(res)
	if !reflect.DeepEqual(cp, res) {
		t.Fatalf("copy differs:\n got %+v\nwant %+v", cp, res)
	}
	shared := cp == res ||
		len(res.PerNode) > 0 && &cp.PerNode[0] == &res.PerNode[0] ||
		res.Lifetime != nil && cp.Lifetime == res.Lifetime ||
		res.Replicates != nil && (cp.Replicates == res.Replicates ||
			len(res.Replicates.Seeds) > 0 && &cp.Replicates.Seeds[0] == &res.Replicates.Seeds[0])
	if shared {
		t.Fatalf("copy shares memory with its original: %+v", res)
	}
}

// generated builds a Results out of fuzz input: every field drawn from the
// bytes, floats kept finite (JSON has no NaN or Inf) and the label valid
// UTF-8 (the encoder replaces anything else), so it round-trips exactly.
func generated(data []byte) *network.Results {
	next := func() uint64 {
		var v uint64
		for i := 0; i < 8 && len(data) > 0; i++ {
			v, data = v<<8|uint64(data[0]), data[1:]
		}
		return v
	}
	float := func() float64 {
		if f := math.Float64frombits(next()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return 0.1
	}
	flags := next()
	r := &network.Results{
		Stack:    strings.ToValidUTF8(string(data[:min(len(data), int(flags>>8%24))]), "?"),
		Duration: time.Duration(next()), Sent: next(), Delivered: next(),
		DeliveryRatio: float(), DeliveredBits: float(), EnergyGoodput: float(), TxEnergy: float(), TxAmpEnergy: float(),
		Relays: int(int64(next())), Events: next(),
	}
	r.Energy.TxData, r.Energy.Sleep, r.Energy.TxAmp = float(), float(), float()
	r.Routing.DataSent, r.Routing.UpdatesSent = next(), next()
	r.MAC.UnicastSent, r.MAC.CollisionsSeen = next(), next()
	if flags&1 != 0 {
		r.Lifetime = &network.Lifetime{BatteryJ: float(), FirstDepletion: time.Duration(next()), FirstDepleted: int(int64(next())), Depleted: int(int64(next()))}
	}
	if flags&2 != 0 {
		r.Replicates = &metrics.Summary{N: int(int64(next())), Seeds: []uint64{next(), next()}, Relays: metrics.Stat{Mean: float(), CI95: float()}}
	}
	for range flags >> 2 % 8 {
		n := network.NodeResults{
			ID: int(int64(next())), Pos: geom.Point{X: float(), Y: float()},
			Forwarded: next(), Delivered: next(), Sent: next(), FinalMode: mac.AM + mac.PowerMode(next()%2),
		}
		n.Energy.Rx, n.Energy.Idle, n.Energy.Switch, n.Energy.TxControl = float(), float(), float(), float()
		r.PerNode = append(r.PerNode, n)
	}
	return r
}

// FuzzDecodeResults holds the decoder to encoding/json on arbitrary bytes —
// whatever it accepts, encoding/json accepts, as the same value — and to
// an exact round trip of a Results built from the same bytes.
func FuzzDecodeResults(f *testing.F) {
	f.Add([]byte(`{"stack":"DSR-ODPM","duration_ns":40000000000,"sent":12,"delivery_ratio":0.75,"energy":{"tx_data_j":0.5,"idle_j":1e-3},` +
		`"routing":{"rreq_sent":4},"mac":{"retries":1},"lifetime":{"battery_j":30,"first_depleted":-1},` +
		`"per_node":[{"id":0,"pos":{"x":1.5,"y":2},"energy":{"rx_j":0.25},"forwarded":1,"final_mode":"AM"},{"id":1,"final_mode":"PSM"}]}`))
	f.Add([]byte(`{"STACK":"x","ſent":7,"per_node":[{"id":1}],"per_node":[null,{}],"unknown":{"a":[1,"\u00e9"]}}`))
	f.Add([]byte(` null `))
	for _, c := range fallbackCases() {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := network.DecodeResults(data); err == nil {
			want, err := reference(data)
			if err != nil {
				t.Fatalf("DecodeResults accepts what encoding/json rejects (%v): %q", err, data)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("decoders disagree on %q:\n got %+v\nwant %+v", data, got, want)
			}
		}
		res := generated(data)
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := network.DecodeResults(enc)
		if err != nil {
			t.Fatalf("DecodeResults rejects the encoder's output: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", back, res)
		}
		writerAgrees(t, res)
		copyAgrees(t, res)
	})
}

// floatAgrees fails unless the decoder reads the JSON number lit as
// strconv.ParseFloat does, bit for bit, and rejects it when strconv does.
func floatAgrees(t testing.TB, lit string) {
	t.Helper()
	want, err := strconv.ParseFloat(lit, 64)
	got, gerr := network.DecodeResults([]byte(`{"delivery_ratio":` + lit + `}`))
	switch {
	case err != nil && gerr == nil:
		t.Fatalf("%s: decoded as %v, strconv says %v", lit, got.DeliveryRatio, err)
	case err != nil:
	case gerr != nil:
		t.Fatalf("%s: %v", lit, gerr)
	case math.Float64bits(got.DeliveryRatio) != math.Float64bits(want):
		t.Fatalf("%s: decoded as %v (%#x), strconv reads %v (%#x)",
			lit, got.DeliveryRatio, math.Float64bits(got.DeliveryRatio), want, math.Float64bits(want))
	}
}

// floatLiterals turns fuzz input into JSON number literals: the digits of s
// as a decimal with a point, leading fraction zeros and an exponent drawn
// from bits, and the 'g', 'f' and 'e' formats of bits as a float64.
func floatLiterals(s string, bits uint64) []string {
	var lits []string
	digits := strings.TrimLeft(strings.Map(func(r rune) rune {
		if '0' <= r && r <= '9' {
			return r
		}
		return -1
	}, s), "0")
	if digits = digits[:min(len(digits), 40)]; digits != "" {
		k := int(bits%uint64(len(digits))) + 1
		lit := digits[:k] + "." + strings.Repeat("0", int(bits>>8%4)) + digits[k:]
		if k == len(digits) {
			lit = digits
		}
		if bits&(1<<16) != 0 {
			lit = "0." + strings.Repeat("0", int(bits>>8%4)) + digits
		}
		if bits&(1<<17) != 0 {
			lit = "-" + lit
		}
		lits = append(lits, lit, fmt.Sprintf("%se%d", lit, int(bits>>32%800)-400))
	}
	if f := math.Float64frombits(bits); !math.IsNaN(f) && !math.IsInf(f, 0) {
		for _, format := range []byte("gfe") {
			lits = append(lits, strconv.FormatFloat(f, format, -1, 64))
		}
	}
	return lits
}

// TestReadFloatExact holds the float reader to strconv over its hard cases
// and a deterministic sample of what FuzzReadFloat explores.
func TestReadFloatExact(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "-0.0e5", "0e400", "1", "0.1", "0.30000000000000004", "1e22", "1e-22", "1e23", "9007199254740991",
		"9007199254740992", "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
		"9007199254740991e22", "1234567890123456789", "12345678901234567890", "1234567890123456789e-30",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324", "2e-324",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e-400", "1e400",
		"7.3177701707893310e15", "8.589973e9", "0.000001", "1E+2", "1e0000000000000000000000000000000000001",
		"0.00000000000000000000000000000000000000000000000000001234567890123456789", "1e-348", "1e347", "1e-349",
	} {
		floatAgrees(t, lit)
	}
	rng := rand.New(rand.NewPCG(4, 5))
	for range 20000 {
		digits := strconv.FormatUint(rng.Uint64(), 10)
		for _, lit := range floatLiterals(digits[:1+rng.IntN(len(digits))], rng.Uint64()) {
			floatAgrees(t, lit)
		}
	}
}

// FuzzReadFloat holds the exact float reader to strconv.ParseFloat bits.
func FuzzReadFloat(f *testing.F) {
	f.Add("31415926535897932", uint64(0x400921fb54442d18))
	f.Add("17976931348623157", uint64(0x7fefffffffffffff))
	f.Add("49406564584124654", uint64(1))
	f.Add("9007199254740993", uint64(0x0000_0190_0001_0000))
	f.Fuzz(func(t *testing.T, digits string, bits uint64) {
		for _, lit := range floatLiterals(digits, bits) {
			floatAgrees(t, lit)
		}
	})
}
