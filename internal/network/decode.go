package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/radio"
	"eend/internal/routing"
)

// This file is the one decoder of a Results, the reading half of the codec
// (encode.go writes): a byte cursor with a key switch per struct, written
// against the schema instead of reflecting over it. A warm sweep point is a
// cache read, and with encoding/json three quarters of that read was
// reflection over an 11.7 KB entry.
//
// The decoder accepts what encoding/json accepts for the same type and
// produces the same value: any key order and whitespace, unknown keys
// skipped (their values still validated), null a no-op on a scalar or
// struct and a reset on per_node, a repeated key decoded again over the
// first, every integer through the strconv call encoding/json makes, every
// float through float.go's exact reader or, where it declines, that same
// strconv call, so every float64 is bit-identical. Keys are matched
// exactly; one that misses is retried once under encoding/json's case
// folding before it is skipped, so the two decoders agree on every input.
// Three things are handed to encoding/json on their raw extent, because
// they are cold and its answer is the definition: a string or key with an
// escape or a non-ASCII byte, and the optional lifetime and replicates
// sub-objects. Anything else is an error, and the evaluation path treats
// an entry that does not decode as a miss.

// DecodeResults decodes the JSON encoding of a Results.
func DecodeResults(data []byte) (*Results, error) {
	r := new(Results)
	if err := r.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalJSON implements json.Unmarshaler with the schema-specific
// decoder, so every decoder of the type is the same code.
func (r *Results) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	object(&d, r, resultsField)
	if d.space(); d.pos < len(d.data) {
		d.fail("trailing data")
	}
	return d.err
}

// maxDepth is encoding/json's nesting limit; a deeper document is an error
// there, so it is one here.
const maxDepth = 10000

// decoder is a cursor over one JSON document. The first fault is recorded
// and moves the cursor to the end of the input, where every read sees end
// of input and every loop stops; callers check err once.
type decoder struct {
	data  []byte
	pos   int
	depth int
	err   error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("network: results JSON: %s at byte %d", msg, d.pos)
	}
	d.pos = len(d.data)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// cur returns the byte at the cursor, 0 at end of input (a literal NUL is
// valid nowhere a caller looks); peek skips whitespace first.
func (d *decoder) cur() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) peek() byte {
	d.space()
	return d.cur()
}

// expect consumes c, which must be the next non-space byte.
func (d *decoder) expect(c byte) bool {
	if d.peek() != c {
		d.fail("expected '" + string(c) + "'")
		return false
	}
	d.pos++
	return true
}

// null consumes a null literal when one is next.
func (d *decoder) null() bool { return d.peek() == 'n' && d.literal("null") }

// literal consumes word when it is next and reports whether it was.
func (d *decoder) literal(word string) bool {
	if d.space(); !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return false
	}
	d.pos += len(word)
	return true
}

// open consumes the opening bracket c and reports whether the composite
// has a first member; close is the matching bracket.
func (d *decoder) open(c, close byte) bool {
	if !d.expect(c) {
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	return !d.closed(close)
}

// next consumes the separator after a member and reports whether another
// member follows; the alternative is the closing bracket.
func (d *decoder) next(close byte) bool {
	if d.peek() == ',' {
		d.pos++
		return true
	}
	if !d.closed(close) {
		d.fail("expected ',' or '" + string(close) + "'")
	}
	return false
}

func (d *decoder) closed(close byte) bool {
	if d.peek() != close {
		return false
	}
	d.pos++
	d.depth--
	return true
}

// object walks one JSON object into v, handing each member to field, which
// decodes the value of a key it knows and reports false for one it does
// not. null leaves v as it is.
func object[T any](d *decoder, v *T, field func(*decoder, *T, []byte) bool) {
	if d.null() {
		return
	}
	for more := d.open('{', '}'); more; more = d.next('}') {
		key, ok := d.text()
		if !ok {
			d.fail("expected a key")
		}
		d.expect(':')
		if field(d, v, key) {
			continue
		}
		if folded := foldKey(key); folded == nil || !field(d, v, folded) {
			d.skip()
		}
	}
}

// foldKey returns key as encoding/json's case-insensitive fallback matches
// it against a field name, or nil when that is key itself. Every name in
// the schema is lower-case ASCII, whose only folds are its upper case,
// U+017F for s and U+212A for k.
func foldKey(key []byte) []byte {
	folded := bytes.Map(func(r rune) rune {
		switch {
		case 'A' <= r && r <= 'Z':
			return r + 'a' - 'A'
		case r == '\u017f':
			return 's'
		case r == '\u212a':
			return 'k'
		}
		return r
	}, key)
	if bytes.Equal(folded, key) {
		return nil
	}
	return folded
}

// text reads a JSON string and returns its value; ok is false for null
// (consumed) and for anything that is not a string (a fault). A plain
// string's value is the bytes between its quotes; one with an escape or a
// non-ASCII byte goes to encoding/json, which also validates the escapes.
func (d *decoder) text() (value []byte, ok bool) {
	if d.null() || !d.expect('"') {
		return nil, false
	}
	data, start, plain := d.data, d.pos, true
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			if d.pos = i + 1; plain {
				return data[start:i], true
			}
			var s string
			if err := json.Unmarshal(data[start-1:i+1], &s); err != nil {
				d.fail(err.Error())
				return nil, false
			}
			return []byte(s), true
		case c == '\\':
			plain = false
			i++ // whatever is escaped does not end the string
		case c < ' ':
			d.pos = i
			d.fail("control character in string")
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	d.fail("unterminated string")
	return nil, false
}

// number returns the extent of the JSON number literal at the cursor, nil
// for null (consumed) or a fault.
func (d *decoder) number() []byte {
	if d.null() {
		return nil
	}
	start := d.pos
	if d.cur() == '-' {
		d.pos++
	}
	if d.cur() == '0' {
		d.pos++
	} else if !d.digits() {
		d.fail("expected a number")
	}
	if d.cur() == '.' {
		if d.pos++; !d.digits() {
			d.fail("expected a digit after '.'")
		}
	}
	if d.cur()|0x20 == 'e' {
		if d.pos++; d.cur() == '+' || d.cur() == '-' {
			d.pos++
		}
		if !d.digits() {
			d.fail("expected a digit in the exponent")
		}
	}
	if d.err != nil {
		return nil
	}
	return d.data[start:d.pos]
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	i := d.pos
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	start := d.pos
	d.pos = i
	return i > start
}

// The number readers make the strconv call encoding/json makes for the
// field's kind, so they accept, reject and round exactly as it does: a
// float or a negative literal in an unsigned field and an integer out of
// range are errors. float first tries the exact conversions of float.go,
// which decline rather than round differently.

func (d *decoder) float(p *float64) {
	if v, ok := d.fastFloat(); ok {
		*p = v
		return
	}
	if lit := d.number(); lit != nil {
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.fail(err.Error())
			return
		}
		*p = v
	}
}

func (d *decoder) uint(p *uint64) {
	if lit := d.number(); lit != nil {
		v, err := strconv.ParseUint(string(lit), 10, 64)
		if err != nil {
			d.fail(err.Error())
			return
		}
		*p = v
	}
}

func (d *decoder) int64(p *int64) {
	if lit := d.number(); lit != nil {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			d.fail(err.Error())
			return
		}
		*p = v
	}
}

func (d *decoder) int(p *int) {
	if lit := d.number(); lit != nil {
		v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if err != nil {
			d.fail(err.Error())
			return
		}
		*p = int(v)
	}
}

// skip consumes one value of any type, validating it as encoding/json's
// scanner would.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		for more := d.open('{', '}'); more; more = d.next('}') {
			if _, ok := d.text(); !ok {
				d.fail("expected a key")
			}
			d.expect(':')
			d.skip()
		}
	case c == '[':
		for more := d.open('[', ']'); more; more = d.next(']') {
			d.skip()
		}
	case c == '"':
		d.text()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case d.literal("true") || d.literal("false") || d.literal("null"):
	default:
		d.fail("expected a value")
	}
}

// delegate hands the raw extent of the next value to encoding/json.
func (d *decoder) delegate(v any) {
	d.space()
	start := d.pos
	if d.skip(); d.err != nil {
		return
	}
	if err := json.Unmarshal(d.data[start:d.pos], v); err != nil {
		d.fail(err.Error())
	}
}

func resultsField(d *decoder, r *Results, key []byte) bool {
	switch string(key) {
	case "stack":
		if s, ok := d.text(); ok {
			r.Stack = string(s)
		}
	case "duration_ns":
		d.int64((*int64)(&r.Duration))
	case "sent":
		d.uint(&r.Sent)
	case "delivered":
		d.uint(&r.Delivered)
	case "delivery_ratio":
		d.float(&r.DeliveryRatio)
	case "delivered_bits":
		d.float(&r.DeliveredBits)
	case "energy":
		object(d, &r.Energy, breakdownField)
	case "energy_goodput":
		d.float(&r.EnergyGoodput)
	case "tx_energy_j":
		d.float(&r.TxEnergy)
	case "tx_amp_energy_j":
		d.float(&r.TxAmpEnergy)
	case "relays":
		d.int(&r.Relays)
	case "routing":
		object(d, &r.Routing, routingField)
	case "mac":
		object(d, &r.MAC, macField)
	case "events":
		d.uint(&r.Events)
	case "lifetime":
		d.delegate(&r.Lifetime)
	case "replicates":
		d.delegate(&r.Replicates)
	case "per_node":
		d.nodes(&r.PerNode)
	default:
		return false
	}
	return true
}

// nodes decodes per_node. A second per_node key in one document decodes
// over the first element by element, as encoding/json's slice decoding
// does. The first one sizes the slice before filling it: in the encoder's
// own output "},{" occurs between two elements and nowhere else, so the
// count is exact for a cache entry — one allocation however many nodes it
// holds — and for anything else a hint that append corrects.
func (d *decoder) nodes(p *[]NodeResults) {
	if d.null() {
		*p = nil
		return
	}
	s, n := *p, 0
	for more := d.open('[', ']'); more; more = d.next(']') {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		case n == 0:
			s = make([]NodeResults, 1, bytes.Count(d.data[d.pos:], []byte("},{"))+1)
		default:
			s = append(s, NodeResults{})
		}
		object(d, &s[n], nodeField)
		n++
	}
	if d.err != nil {
		return
	}
	if s = s[:n]; n == 0 {
		s = []NodeResults{}
	}
	*p = s
}

func nodeField(d *decoder, n *NodeResults, key []byte) bool {
	switch string(key) {
	case "id":
		d.int(&n.ID)
	case "pos":
		object(d, &n.Pos, pointField)
	case "energy":
		object(d, &n.Energy, breakdownField)
	case "forwarded":
		d.uint(&n.Forwarded)
	case "delivered":
		d.uint(&n.Delivered)
	case "sent":
		d.uint(&n.Sent)
	case "final_mode":
		if name, ok := d.text(); ok {
			if err := n.FinalMode.UnmarshalText(name); err != nil {
				d.fail(err.Error())
			}
		}
	default:
		return false
	}
	return true
}

func pointField(d *decoder, p *geom.Point, key []byte) bool {
	switch string(key) {
	case "x":
		d.float(&p.X)
	case "y":
		d.float(&p.Y)
	default:
		return false
	}
	return true
}

func breakdownField(d *decoder, b *radio.Breakdown, key []byte) bool {
	switch string(key) {
	case "tx_data_j":
		d.float(&b.TxData)
	case "tx_control_j":
		d.float(&b.TxControl)
	case "rx_j":
		d.float(&b.Rx)
	case "idle_j":
		d.float(&b.Idle)
	case "sleep_j":
		d.float(&b.Sleep)
	case "switch_j":
		d.float(&b.Switch)
	case "tx_amp_j":
		d.float(&b.TxAmp)
	default:
		return false
	}
	return true
}

func routingField(d *decoder, s *routing.Stats, key []byte) bool {
	switch string(key) {
	case "data_sent":
		d.uint(&s.DataSent)
	case "data_forwarded":
		d.uint(&s.DataForwarded)
	case "data_delivered":
		d.uint(&s.DataDelivered)
	case "data_dropped":
		d.uint(&s.DataDropped)
	case "rreq_sent":
		d.uint(&s.RREQSent)
	case "rrep_sent":
		d.uint(&s.RREPSent)
	case "rerr_sent":
		d.uint(&s.RERRSent)
	case "updates_sent":
		d.uint(&s.UpdatesSent)
	default:
		return false
	}
	return true
}

func macField(d *decoder, s *mac.Stats, key []byte) bool {
	switch string(key) {
	case "unicast_sent":
		d.uint(&s.UnicastSent)
	case "unicast_failed":
		d.uint(&s.UnicastFailed)
	case "broadcast_sent":
		d.uint(&s.BroadcastSent)
	case "queue_drops":
		d.uint(&s.QueueDrops)
	case "retries":
		d.uint(&s.Retries)
	case "atim_sent":
		d.uint(&s.ATIMSent)
	case "collisions_seen":
		d.uint(&s.CollisionsSeen)
	default:
		return false
	}
	return true
}
