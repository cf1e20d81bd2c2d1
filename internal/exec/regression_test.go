package exec

import (
	"context"
	"errors"
	"strings"
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

// TestFlightLeaderPanicReleasesFollowers: with panics recovered at the item
// boundary the process outlives a panicking leader, so its followers must
// not be left waiting on a call that will never complete.
func TestFlightLeaderPanicReleasesFollowers(t *testing.T) {
	var f Flight
	leaderRunning := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		f.DoContext(context.Background(), "k", func() (any, error) {
			close(leaderRunning)
			<-release
			panic("boom")
		})
	}()
	<-leaderRunning
	done := make(chan error, 1)
	go func() {
		_, err, _ := f.DoContext(context.Background(), "k", func() (any, error) { return 2, nil })
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	close(release)
	select {
	case err := <-done:
		// Joined the flight: the leader's failure; arrived after it: a
		// fresh run. Either way it returned.
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("follower error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still waiting on a leader that panicked")
	}
}
