package routing

import "eend/internal/mac"

// sendKind says which message of a send is in use. Each kind has its own
// free list, so an update is handed a struct whose entries have room.
type sendKind uint8

const (
	sendData   sendKind = iota // one hop of a data packet
	sendUpdate                 // a DSDV route update
	sendRREQ                   // a forwarded route request
	numSendKinds
)

// hopOwner is the protocol a data hop belongs to: told when the MAC gives
// up on the next hop, while the packet is still intact.
type hopOwner interface {
	hopFailed(next int, pkt *dataPacket)
}

// send is the state of one send (ARCHITECTURE "Send state"): the message
// the receiver reads, its MAC envelope, and the callbacks for the MAC and
// the kernel, bound once when the struct is made. The sending protocol owns
// it from take until the MAC's done; a receiver reads the message inside
// HandlePacket and copies what it keeps.
type send struct {
	pool *sendPool
	kind sendKind
	idle bool // in a free list
	pkt  mac.Packet

	data dataPacket
	upd  dsdvUpdate // entries keeps its backing array from use to use
	req  rreq       // and so does Path

	owner  hopOwner // sendData: whose hop to next this is
	next   int
	dsr    *DSR // sendRREQ: who forwards it when the jitter has elapsed
	doneFn mac.DoneFunc
	fireFn func() // sendRREQ: the jitter callback
}

// sendPool is one run's send state: every node reaches the same pool through
// its RunState, so a struct one node releases serves whichever node sends
// next. The zero value is ready to use.
type sendPool struct {
	free            [numSendKinds][]*send
	taken, released uint64
}

func (p *sendPool) take(k sendKind) *send {
	p.taken++
	if n := len(p.free[k]); n > 0 {
		s := p.free[k][n-1]
		p.free[k], s.idle = p.free[k][:n-1], false
		return s
	}
	s := &send{pool: p, kind: k}
	s.doneFn = s.done
	if k == sendRREQ {
		s.fireFn = s.fire
	}
	return s
}

// put takes s back, emptied: whoever still reads it finds no message, which
// moves a transcript instead of passing for the packet it was.
func (p *sendPool) put(s *send) {
	if s.idle {
		panic("routing: send state released twice")
	}
	p.released++
	s.idle, s.pkt, s.data, s.owner, s.dsr = true, mac.Packet{}, dataPacket{}, nil, nil
	s.upd.entries, s.req = s.upd.entries[:0], rreq{Path: s.req.Path[:0]}
	p.free[s.kind] = append(p.free[s.kind], s)
}

// done is every pooled send's DoneFunc: the MAC is through with the packet
// and every receiver has had it (see mac.DoneFunc).
func (s *send) done(ok bool) {
	if !ok && s.owner != nil {
		s.owner.hopFailed(s.next, &s.data)
	}
	s.pool.put(s)
}

// take returns send state of kind k from the run's pool.
func (e *Env) take(k sendKind) *send { return e.Run.sends.take(k) }

// sendHop queues pkt for next as its hop-th holder sends it. pkt is only
// read: it may be the previous hop's state.
func (e *Env) sendHop(owner hopOwner, next int, pkt *dataPacket, hop, ttl int, powerControl bool) {
	s := e.take(sendData)
	s.data, s.owner, s.next = *pkt, owner, next
	s.data.Hop, s.data.TTL = hop, ttl
	var txPower float64
	if powerControl {
		txPower = e.MAC.TxPowerFor(next)
	}
	s.pkt = mac.Packet{Kind: mac.PacketData, Bytes: s.data.bytes(), Payload: &s.data}
	e.MAC.SendUnicast(next, &s.pkt, txPower, s.doneFn)
}
