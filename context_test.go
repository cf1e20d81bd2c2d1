package eend_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"eend"
)

// longScenario is big enough that an uncancelled run takes many seconds of
// wall time (200 nodes, 900 virtual seconds of RREQ flooding).
func longScenario(t *testing.T, seed uint64) *eend.Scenario {
	t.Helper()
	sc, err := eend.NewScenario(
		eend.WithSeed(seed),
		eend.WithField(1300, 1300),
		eend.WithNodes(200),
		eend.WithStack(eend.DSR, eend.ODPM),
		eend.WithRandomFlows(20, 6144, 128),
		eend.WithDuration(900*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestCancelStopsLongRunPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := longScenario(t, 1).Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Cancellation is polled per event batch, so the abort should land
	// within milliseconds; allow generous slack for slow CI machines.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run returned after %v, want prompt abort", elapsed)
	}
}

func TestCancelStopsBatchPromptly(t *testing.T) {
	scenarios := []*eend.Scenario{longScenario(t, 1), longScenario(t, 2), longScenario(t, 3)}
	ctx, cancel := context.WithCancel(context.Background())
	results := eend.RunBatch(ctx, scenarios, eend.Workers(2))
	cancel()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case br, ok := <-results:
			if !ok {
				return // channel closed promptly: no stuck workers
			}
			if br.Err == nil {
				t.Fatalf("scenario %d reported success under a cancelled context", br.Index)
			}
		case <-deadline:
			t.Fatal("batch channel did not close after cancellation")
		}
	}
}

func TestRunnerRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := eend.Runner{Scale: eend.Quick}
	if _, err := r.Run(ctx, "fig8"); err == nil {
		t.Fatal("cancelled context should abort Runner.Run")
	}
	if _, err := r.RunAblation(ctx, "ablation-pc"); err == nil {
		t.Fatal("cancelled context should abort Runner.RunAblation")
	}
	if _, err := r.All(ctx); err == nil {
		t.Fatal("cancelled context should abort Runner.All")
	}
}

// TestRunExperimentDispatchesCatalogue walks both ID lists through the one
// public dispatcher: every listed ID is an experiment ID and yields the
// figure it names, whichever namespace it belongs to.
func TestRunExperimentDispatchesCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	r := eend.Runner{Scale: eend.Quick}
	for _, id := range append(eend.ExperimentIDs(), eend.AblationIDs()...) {
		if !eend.IsExperimentID(id) {
			t.Errorf("IsExperimentID(%q) = false", id)
		}
		f, err := eend.RunExperiment(context.Background(), r, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id {
			t.Errorf("%s dispatched to figure %q", id, f.ID)
		}
	}
	if eend.IsExperimentID("fig99") {
		t.Error(`IsExperimentID("fig99") = true`)
	}
	if _, err := eend.RunExperiment(context.Background(), r, "fig99"); err == nil {
		t.Error("unknown id should fail")
	}
}
