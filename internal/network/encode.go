package network

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/metrics"
	"eend/internal/radio"
	"eend/internal/routing"
)

// This file is the one encoder of a Results, the writing half of the codec
// (decode.go reads): one method per struct of the schema instead of
// reflection over it, byte-identical to encoding/json (see Writer). A
// power mode is written from PowerMode.String()'s constants, so an encode
// allocates nothing per node: Fingerprint hashes a pooled buffer,
// MarshalJSON copies it out once.

// MarshalJSON implements json.Marshaler with the schema-specific writer,
// so every encoder of the type is the same code.
func (r Results) MarshalJSON() ([]byte, error) {
	w := pooled()
	defer writers.Put(w)
	if w.Results(&r); w.err != nil {
		return nil, w.err
	}
	return append([]byte(nil), w.Buf...), nil
}

// writers holds the buffers of Fingerprint and MarshalJSON.
var writers = sync.Pool{New: func() any { return new(Writer) }}

func pooled() *Writer {
	w := writers.Get().(*Writer)
	w.Reset(false)
	return w
}

// Writer appends JSON to Buf byte for byte as json.Marshal writes it or,
// with Indent, as json.Encoder does under SetIndent("", "  ") at any depth
// (without its trailing newline or its indent pass over a compact copy).
// The caller pairs Open with Close and starts every member with Key and
// every array element with Elem; the first value that cannot be encoded
// (a NaN or an infinity) is kept for Err and the rest is still written.
type Writer struct {
	Buf    []byte
	Indent bool
	depth  int  // composites open
	fresh  bool // the innermost one has no member yet
	err    error
}

// Reset empties the writer for a new document, keeping Buf's storage.
func (w *Writer) Reset(indent bool) {
	*w = Writer{Buf: w.Buf[:0], Indent: indent}
}

// Err returns the first value that could not be encoded.
func (w *Writer) Err() error { return w.err }

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(c byte) {
	w.Buf = append(w.Buf, c)
	w.depth++
	w.fresh = true
}

// Close ends the innermost composite with c. An empty one stays "{}" or
// "[]" when indented, as json.Indent leaves it.
func (w *Writer) Close(c byte) {
	if w.depth--; !w.fresh {
		w.newline()
	}
	w.fresh = false
	w.Buf = append(w.Buf, c)
}

// Elem starts an array element.
func (w *Writer) Elem() {
	if !w.fresh {
		w.Buf = append(w.Buf, ',')
	}
	w.fresh = false
	w.newline()
}

// Key starts an object member. The name is written as it is: every name
// a caller passes is plain ASCII, which JSON does not escape.
func (w *Writer) Key(name string) {
	w.Elem()
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, name...)
	w.Buf = append(w.Buf, '"', ':')
	if w.Indent {
		w.Buf = append(w.Buf, ' ')
	}
}

func (w *Writer) newline() {
	if w.Indent {
		w.Buf = append(w.Buf, '\n')
		for range w.depth {
			w.Buf = append(w.Buf, ' ', ' ')
		}
	}
}

// String writes s as a JSON string. A string with a byte encoding/json
// escapes (a quote, a backslash, a control character, <, > or &) or any
// non-ASCII byte is cold, so it is handed to encoding/json, whose answer
// is the definition.
func (w *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			w.Buf = append(w.Buf, quoted...)
			return
		}
	}
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, s...)
	w.Buf = append(w.Buf, '"')
}

// Null writes null.
func (w *Writer) Null() { w.Buf = append(w.Buf, "null"...) }

// Bool writes true or false.
func (w *Writer) Bool(b bool) { w.Buf = strconv.AppendBool(w.Buf, b) }

// float writes f as encoding/json's float64 encoder does: the shortest
// representation that round-trips, in 'e' format outside [1e-6, 1e21),
// e-07 cleaned up to e-7. JSON has no NaN or infinity; one is an error.
func (w *Writer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %v", f)
		}
		w.Null()
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.Buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.Buf = b
}

// floatKey, uintKey and intKey write an object member of their kind; the
// unexported methods below them write one struct of the schema as a member.

func (w *Writer) floatKey(name string, f float64) {
	w.Key(name)
	w.float(f)
}

func (w *Writer) uintKey(name string, v uint64) {
	w.Key(name)
	w.Buf = strconv.AppendUint(w.Buf, v, 10)
}

func (w *Writer) intKey(name string, v int64) {
	w.Key(name)
	w.Buf = strconv.AppendInt(w.Buf, v, 10)
}

// Results writes r with the field names and order of its struct tags.
func (w *Writer) Results(r *Results) {
	w.Open('{')
	w.Key("stack")
	w.String(r.Stack)
	w.intKey("duration_ns", int64(r.Duration))
	w.uintKey("sent", r.Sent)
	w.uintKey("delivered", r.Delivered)
	w.floatKey("delivery_ratio", r.DeliveryRatio)
	w.floatKey("delivered_bits", r.DeliveredBits)
	w.breakdown("energy", &r.Energy)
	w.floatKey("energy_goodput", r.EnergyGoodput)
	w.floatKey("tx_energy_j", r.TxEnergy)
	w.floatKey("tx_amp_energy_j", r.TxAmpEnergy)
	w.intKey("relays", int64(r.Relays))
	w.routing(&r.Routing)
	w.mac(&r.MAC)
	w.uintKey("events", r.Events)
	if r.Lifetime != nil {
		w.lifetime(r.Lifetime)
	}
	if r.Replicates != nil {
		w.summary(r.Replicates)
	}
	if len(r.PerNode) > 0 {
		w.Key("per_node")
		w.Open('[')
		for i := range r.PerNode {
			w.Elem()
			w.node(&r.PerNode[i])
		}
		w.Close(']')
	}
	w.Close('}')
}

func (w *Writer) node(n *NodeResults) {
	w.Open('{')
	w.intKey("id", int64(n.ID))
	w.point(n.Pos)
	w.breakdown("energy", &n.Energy)
	w.uintKey("forwarded", n.Forwarded)
	w.uintKey("delivered", n.Delivered)
	w.uintKey("sent", n.Sent)
	w.Key("final_mode")
	w.String(n.FinalMode.String()) // what its MarshalText returns
	w.Close('}')
}

func (w *Writer) point(p geom.Point) {
	w.Key("pos")
	w.Open('{')
	w.floatKey("x", p.X)
	w.floatKey("y", p.Y)
	w.Close('}')
}

func (w *Writer) breakdown(name string, b *radio.Breakdown) {
	w.Key(name)
	w.Open('{')
	w.floatKey("tx_data_j", b.TxData)
	w.floatKey("tx_control_j", b.TxControl)
	w.floatKey("rx_j", b.Rx)
	w.floatKey("idle_j", b.Idle)
	w.floatKey("sleep_j", b.Sleep)
	w.floatKey("switch_j", b.Switch)
	w.floatKey("tx_amp_j", b.TxAmp)
	w.Close('}')
}

func (w *Writer) routing(s *routing.Stats) {
	w.Key("routing")
	w.Open('{')
	w.uintKey("data_sent", s.DataSent)
	w.uintKey("data_forwarded", s.DataForwarded)
	w.uintKey("data_delivered", s.DataDelivered)
	w.uintKey("data_dropped", s.DataDropped)
	w.uintKey("rreq_sent", s.RREQSent)
	w.uintKey("rrep_sent", s.RREPSent)
	w.uintKey("rerr_sent", s.RERRSent)
	w.uintKey("updates_sent", s.UpdatesSent)
	w.Close('}')
}

func (w *Writer) mac(s *mac.Stats) {
	w.Key("mac")
	w.Open('{')
	w.uintKey("unicast_sent", s.UnicastSent)
	w.uintKey("unicast_failed", s.UnicastFailed)
	w.uintKey("broadcast_sent", s.BroadcastSent)
	w.uintKey("queue_drops", s.QueueDrops)
	w.uintKey("retries", s.Retries)
	w.uintKey("atim_sent", s.ATIMSent)
	w.uintKey("collisions_seen", s.CollisionsSeen)
	w.Close('}')
}

func (w *Writer) lifetime(l *Lifetime) {
	w.Key("lifetime")
	w.Open('{')
	w.floatKey("battery_j", l.BatteryJ)
	w.intKey("first_depletion_ns", int64(l.FirstDepletion))
	w.intKey("first_depleted", int64(l.FirstDepleted))
	w.intKey("depleted", int64(l.Depleted))
	w.Close('}')
}

func (w *Writer) summary(s *metrics.Summary) {
	w.Key("replicates")
	w.Open('{')
	w.intKey("n", int64(s.N))
	w.Key("seeds")
	if s.Seeds == nil {
		w.Null()
	} else {
		w.Open('[')
		for _, seed := range s.Seeds {
			w.Elem()
			w.Buf = strconv.AppendUint(w.Buf, seed, 10)
		}
		w.Close(']')
	}
	for _, st := range [...]struct {
		name string
		stat *metrics.Stat
	}{
		{"delivery_ratio", &s.DeliveryRatio}, {"energy_goodput", &s.EnergyGoodput},
		{"energy_j", &s.EnergyTotal}, {"tx_energy_j", &s.TxEnergy},
		{"tx_amp_energy_j", &s.TxAmpEnergy}, {"sent", &s.Sent},
		{"delivered", &s.Delivered}, {"relays", &s.Relays}, {"events", &s.Events},
	} {
		w.Key(st.name)
		w.Open('{')
		w.floatKey("mean", st.stat.Mean)
		w.floatKey("ci95", st.stat.CI95)
		w.Close('}')
	}
	w.Close('}')
}
