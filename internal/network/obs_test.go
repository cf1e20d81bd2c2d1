package network

import (
	"context"
	"errors"
	"testing"
	"time"

	"eend/internal/radio"
)

// TestCancelledRunCountsEventsAndWall pins the two halves of the rate
// eend_sim_events_total / eend_sim_wall_seconds_total to each other: a run
// cancelled mid-way has fired events the kernel reports, so the seconds it
// took are reported too. It is not a completed run.
func TestCancelledRunCountsEventsAndWall(t *testing.T) {
	sc := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoDSR, PM: PMODPM}, 60*time.Second)
	nw, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	nw.sim.Schedule(30*time.Second, cancel)
	events, wall, runs := kernelCounts.Events.Value(), simWall.Value(), simRuns.Value()
	if _, err := nw.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if nw.sim.Now() >= sc.Duration || nw.sim.Events() == 0 {
		t.Fatalf("run was not cut short: at %v after %d events", nw.sim.Now(), nw.sim.Events())
	}
	if got := kernelCounts.Events.Value() - events; got != nw.sim.Events() {
		t.Errorf("eend_sim_events_total moved by %d, the run fired %d", got, nw.sim.Events())
	}
	if simWall.Value() <= wall {
		t.Error("eend_sim_wall_seconds_total did not move: the cancelled run's seconds are dropped")
	}
	if got := simRuns.Value() - runs; got != 0 {
		t.Errorf("eend_sim_runs_total moved by %d: a cancelled run is not a completed one", got)
	}
}
