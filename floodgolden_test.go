package eend

import (
	"context"
	"testing"
	"time"
)

// floodGoldens pins route discovery on the field-100 preset: a hundred nodes
// at the paper's reference density, ten flows whose floods cross, four
// stacks. DSR suppresses every duplicate; TITAN-PC asks every PSM node that
// hears a first copy whether to join, against a mixed PSM neighbourhood,
// and defers it; MTPR+ and DSRH-rate re-forward cheaper duplicates and
// answer them again at the target. The values were captured when each node
// kept its own duplicate maps and the coordinator and the medium looked node
// ids up in maps; a moved value means a copy, an RNG draw or a send moved.
var floodGoldens = []struct {
	name        string
	stack       []StackOption
	fingerprint string
}{
	{"dsr-odpm", []StackOption{DSR, ODPM}, "77300dd11c9ee68387eb0bfd6e3715cf44f7e661018d99fa0b8cc048d62f7277"},
	{"titan-pc-odpm", []StackOption{TITAN, ODPM, PowerControl()}, "cb1701a958db2597db48caf5578b86e03e38ec76d28207d8815c33893fc7bf4d"},
	{"mtprplus-odpm", []StackOption{MTPRPlus, ODPM}, "c38ab9318200937fd38e64a29d15555f23e8ade3bbd8340d5ed1a8e925760cd6"},
	{"dsrh-rate-odpm", []StackOption{DSRHRate, ODPM}, "5e4daec9fb4bdc299577c739d5a9bf3733423c7a0e54d86e488d3fbae6fadb3c"},
}

func TestFloodGoldenField100(t *testing.T) {
	preset, err := ParseFieldPreset("field-100")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range floodGoldens {
		t.Run(g.name, func(t *testing.T) {
			sc, err := NewScenario(append(preset.Options(), WithSeed(4), WithStack(g.stack...),
				WithRandomFlows(10, 4096, 128), WithDuration(40*time.Second))...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Routing.RREQSent < 10 || res.Delivered == 0 {
				t.Errorf("%d RREQs originated, %d packets delivered: the floods should cross", res.Routing.RREQSent, res.Delivered)
			}
			if fp := res.Fingerprint(); fp != g.fingerprint {
				t.Errorf("results fingerprint = %s, want %s", fp, g.fingerprint)
			}
		})
	}
}
