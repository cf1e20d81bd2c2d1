package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/radio"
	"eend/internal/routing"
)

// This file is the one decoder of a Results, the reading half of the codec
// (encode.go writes): a byte cursor with an index switch per struct,
// written against the schema instead of reflecting over it. A warm sweep
// point is a cache read, and with encoding/json three quarters of that read
// was reflection over an 11.7 KB entry.
//
// Every document the repository decodes — a cache entry, a dist evaluate
// response, a /v1/evaluate body — was written by Writer: each struct's keys
// in one order, compact or indented. So the member loop predicts them.
// Each struct lists its keys in writer order as `"name":` prefixes; where
// the bytes after a separator and its whitespace are the next one, the
// member's index is known without reading its key. Anything else — a
// reordered, unknown, escaped, case-folded or repeated key, or space
// before a colon — misses, and that member is read by key as any JSON
// object's is; prediction resumes after the key it found. Both ways end in
// the same index switch, so prediction cannot change a value. Counts the
// writer writes are read the same way: a plain run of at most 18 digits is
// converted directly, which is exact because it always fits, and any other
// literal takes the strconv call below.
//
// The decoder accepts what encoding/json accepts for the same type and
// produces the same value: any key order and whitespace, unknown keys
// skipped (their values still validated), null a no-op on a scalar or
// struct and a reset on per_node, a repeated key decoded again over the
// first, every other integer through the strconv call encoding/json makes,
// every float through float.go's exact reader or, where it declines, that
// same strconv call, so every float64 is bit-identical. Keys are matched
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
	d.results(r)
	return d.err
}

func (d *decoder) results(r *Results) {
	object(d, r, resultsKeys, resultsField)
	if d.space(); d.pos < len(d.data) {
		d.fail("trailing data")
	}
}

// maxDepth is encoding/json's nesting limit; a deeper document is an error
// there, so it is one here.
const maxDepth = 10000

// decoder is a cursor over one JSON document. The first fault is recorded
// and moves the cursor to the end of the input, where every read sees end
// of input and every loop stops; callers check err once. predicted and
// keyed count the object members read each way, for the tests.
type decoder struct {
	data             []byte
	pos              int
	depth            int
	err              error
	predicted, keyed int
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("network: results JSON: %s at byte %d", msg, d.pos)
	}
	d.pos = len(d.data)
}

// space skips JSON whitespace, every byte of which is at most ' '.
func (d *decoder) space() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
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

// next consumes the separator after a member, and the whitespace after it,
// and reports whether another member follows; the alternative is the
// closing bracket.
func (d *decoder) next(close byte) bool {
	if d.peek() == ',' {
		d.pos++
		d.space()
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

// object walks one JSON object into v. keys are T's members in writer
// order as `"name":` prefixes, and field decodes the value of member i.
// Where the bytes after a separator are the next member's prefix, the
// member is read by prediction; otherwise its key is read, and a key that
// names no member is skipped with its value. null leaves v as it is.
func object[T any](d *decoder, v *T, keys []string, field func(*decoder, *T, int)) {
	if d.null() {
		return
	}
	for i, more := 0, d.open('{', '}'); more; more = d.next('}') {
		if i < len(keys) && bytes.HasPrefix(d.data[d.pos:], []byte(keys[i])) {
			d.pos += len(keys[i])
			d.predicted++
			field(d, v, i)
			i++
			continue
		}
		key, ok := d.text()
		if !ok {
			d.fail("expected a key")
		}
		d.expect(':')
		d.keyed++
		if j := member(keys, key); j >= 0 {
			field(d, v, j)
			i = j + 1
		} else {
			d.skip()
		}
	}
}

// members returns the prefixes object predicts for names, in that order.
func members(names ...string) []string {
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = `"` + name + `":`
	}
	return keys
}

// member returns the index of the member key names, matched exactly or,
// failing that, under encoding/json's case folding; -1 for none.
func member(keys []string, key []byte) int {
	for i, k := range keys {
		if k[1:len(k)-2] == string(key) {
			return i
		}
	}
	if folded := foldKey(key); folded != nil {
		return member(keys, folded) // a folded key folds to itself
	}
	return -1
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

// plain reads the integer literal at the cursor when it is a run of at most
// 18 digits without a leading zero, a fraction or an exponent, and at most
// max: every count the writer writes. It reports whether it did; when it
// did not, it has consumed whitespace at most. Eighteen digits always fit
// in a uint64, so the value is exact.
func (d *decoder) plain(max uint64) (uint64, bool) {
	d.space()
	data, i, v := d.data, d.pos, uint64(0)
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if i-d.pos == 18 {
			return 0, false
		}
		v = v*10 + uint64(data[i]-'0')
	}
	if n := i - d.pos; n == 0 || n > 1 && data[d.pos] == '0' || v > max ||
		i < len(data) && (data[i] == '.' || data[i]|0x20 == 'e') {
		return 0, false
	}
	d.pos = i
	return v, true
}

// The number readers make the strconv call encoding/json makes for the
// field's kind, so they accept, reject and round exactly as it does: a
// float or a negative literal in an unsigned field and an integer out of
// range are errors. float first tries the exact conversions of float.go,
// and the integer readers plain, which decline rather than differ.

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
	if v, ok := d.plain(math.MaxUint64); ok {
		*p = v
		return
	}
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
	if v, ok := d.plain(math.MaxInt64); ok {
		*p = int64(v)
		return
	}
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
	if v, ok := d.plain(math.MaxInt); ok {
		*p = int(v)
		return
	}
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

// resultsKeys are Results' members in the order Writer.Results writes
// them, and resultsField's cases are their indices; so for every struct
// below.
var resultsKeys = members("stack", "duration_ns", "sent", "delivered", "delivery_ratio", "delivered_bits",
	"energy", "energy_goodput", "tx_energy_j", "tx_amp_energy_j", "relays", "routing", "mac", "events",
	"lifetime", "replicates", "per_node")

func resultsField(d *decoder, r *Results, i int) {
	switch i {
	case 0: // stack
		if s, ok := d.text(); ok {
			r.Stack = string(s)
		}
	case 1: // duration_ns
		d.int64((*int64)(&r.Duration))
	case 2: // sent
		d.uint(&r.Sent)
	case 3: // delivered
		d.uint(&r.Delivered)
	case 4: // delivery_ratio
		d.float(&r.DeliveryRatio)
	case 5: // delivered_bits
		d.float(&r.DeliveredBits)
	case 6: // energy
		object(d, &r.Energy, breakdownKeys, breakdownField)
	case 7: // energy_goodput
		d.float(&r.EnergyGoodput)
	case 8: // tx_energy_j
		d.float(&r.TxEnergy)
	case 9: // tx_amp_energy_j
		d.float(&r.TxAmpEnergy)
	case 10: // relays
		d.int(&r.Relays)
	case 11: // routing
		object(d, &r.Routing, routingKeys, routingField)
	case 12: // mac
		object(d, &r.MAC, macKeys, macField)
	case 13: // events
		d.uint(&r.Events)
	case 14: // lifetime
		d.delegate(&r.Lifetime)
	case 15: // replicates
		d.delegate(&r.Replicates)
	case 16: // per_node
		d.nodes(&r.PerNode)
	}
}

// nodes decodes per_node. A second per_node key in one document decodes
// over the first element by element, as encoding/json's slice decoding
// does. The first one sizes the slice before filling it: in the writer's
// own output per_node comes last and each element opens three objects (its
// own, pos and energy), so a third of the '{' left is exact for a cache
// entry — one allocation however many nodes it holds — and for anything
// else a hint that append corrects.
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
			s = make([]NodeResults, 1, max(1, bytes.Count(d.data[d.pos:], []byte("{"))/3))
		default:
			s = append(s, NodeResults{})
		}
		object(d, &s[n], nodeKeys, nodeField)
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

var nodeKeys = members("id", "pos", "energy", "forwarded", "delivered", "sent", "final_mode")

func nodeField(d *decoder, n *NodeResults, i int) {
	switch i {
	case 0: // id
		d.int(&n.ID)
	case 1: // pos
		object(d, &n.Pos, pointKeys, pointField)
	case 2: // energy
		object(d, &n.Energy, breakdownKeys, breakdownField)
	case 3: // forwarded
		d.uint(&n.Forwarded)
	case 4: // delivered
		d.uint(&n.Delivered)
	case 5: // sent
		d.uint(&n.Sent)
	case 6: // final_mode
		if name, ok := d.text(); ok {
			if err := n.FinalMode.UnmarshalText(name); err != nil {
				d.fail(err.Error())
			}
		}
	}
}

var pointKeys = members("x", "y")

func pointField(d *decoder, p *geom.Point, i int) {
	d.float([...]*float64{&p.X, &p.Y}[i])
}

var breakdownKeys = members("tx_data_j", "tx_control_j", "rx_j", "idle_j", "sleep_j", "switch_j", "tx_amp_j")

func breakdownField(d *decoder, b *radio.Breakdown, i int) {
	d.float([...]*float64{&b.TxData, &b.TxControl, &b.Rx, &b.Idle, &b.Sleep, &b.Switch, &b.TxAmp}[i])
}

var routingKeys = members("data_sent", "data_forwarded", "data_delivered", "data_dropped",
	"rreq_sent", "rrep_sent", "rerr_sent", "updates_sent")

func routingField(d *decoder, s *routing.Stats, i int) {
	d.uint([...]*uint64{&s.DataSent, &s.DataForwarded, &s.DataDelivered, &s.DataDropped,
		&s.RREQSent, &s.RREPSent, &s.RERRSent, &s.UpdatesSent}[i])
}

var macKeys = members("unicast_sent", "unicast_failed", "broadcast_sent", "queue_drops",
	"retries", "atim_sent", "collisions_seen")

func macField(d *decoder, s *mac.Stats, i int) {
	d.uint([...]*uint64{&s.UnicastSent, &s.UnicastFailed, &s.BroadcastSent, &s.QueueDrops,
		&s.Retries, &s.ATIMSent, &s.CollisionsSeen}[i])
}
