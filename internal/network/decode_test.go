package network_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"eend"
	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/metrics"
	"eend/internal/network"
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
	})
}
