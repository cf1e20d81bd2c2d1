package exec

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFlightDoContextCancelledFollower: a follower joining a long flight
// must return promptly when its own ctx is cancelled, without waiting for
// the leader.
func TestFlightDoContextCancelledFollower(t *testing.T) {
	var f Flight
	release := make(chan struct{})
	leaderRunning := make(chan struct{})
	go func() {
		f.DoContext(context.Background(), "k", func() (any, error) {
			close(leaderRunning)
			<-release
			return 1, nil
		})
	}()
	<-leaderRunning
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err, shared := f.DoContext(ctx, "k", func() (any, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) || shared {
		t.Fatalf("cancelled follower returned (%v, shared=%v)", err, shared)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled follower did not return promptly")
	}
	close(release)
}
