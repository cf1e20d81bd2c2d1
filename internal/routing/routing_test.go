package routing

import (
	"testing"
)

func TestIndexOf(t *testing.T) {
	path := []int{3, 1, 4, 1, 5}
	if got := indexOf(path, 4); got != 2 {
		t.Errorf("indexOf(4) = %d, want 2", got)
	}
	if got := indexOf(path, 1); got != 1 {
		t.Errorf("indexOf(1) = %d, want first occurrence 1", got)
	}
	if got := indexOf(path, 9); got != -1 {
		t.Errorf("indexOf(9) = %d, want -1", got)
	}
	if got := indexOf(nil, 0); got != -1 {
		t.Errorf("indexOf(nil) = %d, want -1", got)
	}
}

func TestHasLink(t *testing.T) {
	path := []int{0, 1, 2, 3}
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true},
		{1, 0, true}, // undirected
		{2, 3, true},
		{0, 2, false}, // not adjacent
		{3, 0, false},
		{5, 6, false},
	}
	for _, c := range cases {
		if got := hasLink(path, c.u, c.v); got != c.want {
			t.Errorf("hasLink(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if hasLink([]int{7}, 7, 7) {
		t.Error("single-node path has no links")
	}
}

func TestDataPacketBytes(t *testing.T) {
	p := &dataPacket{AppBytes: 128}
	if got := p.bytes(); got != DataHeaderBytes+128 {
		t.Errorf("bytes = %d, want %d", got, DataHeaderBytes+128)
	}
	p.Route = []int{0, 1, 2}
	if got := p.bytes(); got != DataHeaderBytes+128+3*PerHopBytes {
		t.Errorf("bytes with route = %d", got)
	}
}

func TestRREQBytesGrowWithPath(t *testing.T) {
	r := &rreq{Path: []int{0}}
	small := r.bytes()
	r.Path = []int{0, 1, 2, 3}
	if r.bytes() <= small {
		t.Error("RREQ size must grow with the accumulated path")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{DataSent: 1, DataForwarded: 2, DataDelivered: 3, DataDropped: 4,
		RREQSent: 5, RREPSent: 6, RERRSent: 7, UpdatesSent: 8}
	b := a
	a.Add(b)
	if a.DataSent != 2 || a.UpdatesSent != 16 || a.RERRSent != 14 {
		t.Errorf("Stats.Add wrong: %+v", a)
	}
}
