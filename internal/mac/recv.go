package mac

import (
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
)

// RxBegin implements phy.Listener: the radio starts drawing receive power.
func (m *MAC) RxBegin(f *phy.Frame) {
	m.radio.StartRx(m.sim.Now())
}

// RxEnd implements phy.Listener: account the reception and, if the frame
// decoded, run the MAC state machine.
func (m *MAC) RxEnd(f *phy.Frame, ok bool) {
	now := m.sim.Now()
	m.radio.EndRx(now)
	if !ok {
		m.stats.CollisionsSeen++
		return
	}
	fr, isMAC := f.Payload.(*frame)
	if !isMAC {
		return
	}

	forMe := f.Dst == m.id
	broadcast := f.Dst == phy.Broadcast

	// Virtual carrier sense: honor the NAV on overheard RTS/CTS.
	if !forMe && !broadcast && fr.navUntil > m.navUntil {
		m.navUntil = fr.navUntil
	}

	switch fr.typ {
	case frameRTS:
		if forMe {
			m.respondCTS(f.Src, fr)
		}
	case frameCTS:
		if forMe && m.await == frameCTS && m.current != nil && m.current.dst == f.Src {
			j := m.current
			m.replyArrived()
			m.gotCTS(j, fr.ctsPower)
		}
	case frameData:
		m.handleData(f, fr, forMe, broadcast)
	case frameAck:
		if forMe && m.await == frameAck && m.current != nil && m.current.dst == f.Src {
			j := m.current
			m.replyArrived()
			m.finishJob(j, true)
		}
	case frameATIM:
		m.handleATIM(f, forMe, broadcast)
	case frameATIMAck:
		if forMe && m.await == frameATIMAck && m.current != nil && m.current.dst == f.Src {
			j := m.current
			m.replyArrived()
			put(&m.announcedTo, j.dst, m.coord.interval())
			j.attempts = 0
			j.cw = cwMin
			m.requeue()
		}
	}
}

// TPCMargin is the safety factor applied to the measured link distance when
// reporting the minimum data power in a CTS: real power control backs off
// from the decode threshold, and it keeps boundary links robust against
// floating-point round-off in the range inversion.
const TPCMargin = 1.05

// respondCTS schedules the CTS reply SIFS after the RTS, carrying the TPC
// power measurement for the data frame.
func (m *MAC) respondCTS(src int, rts *frame) {
	power := m.cfg.Card.TxPower(m.med.Distance(m.id, src) * TPCMargin)
	m.respond(src, sizeCTS, frame{typ: frameCTS, navUntil: rts.navUntil, ctsPower: power})
}

// respond schedules a SIFS-separated control response if no other response
// is already pending; the response waits in the MAC until sendResponse.
func (m *MAC) respond(dst int, bytes int, fr frame) {
	if m.respTimer.Pending() {
		return
	}
	m.respDst, m.respBytes, m.respFr = dst, bytes, fr
	m.respTimer = m.sim.ScheduleFor(sim.LayerMAC, sifs, m.respondFn)
}

// sendResponse puts the owed response on the air, if the radio still can.
func (m *MAC) sendResponse() {
	if m.radio.Transmitting() || m.radio.Asleep() {
		return
	}
	m.transmit(m.respDst, m.respBytes, m.MaxPower(), radio.TxControl, m.respFr, thenNothing, nil)
}

// handleData delivers decoded data frames and acknowledges unicasts.
func (m *MAC) handleData(f *phy.Frame, fr *frame, forMe, broadcast bool) {
	if !forMe && !broadcast {
		return // overheard
	}
	if forMe {
		m.respond(f.Src, sizeAck, frame{typ: frameAck})
	}
	if broadcast && m.cfg.AdvertisedWindow && m.announcedBy[f.Src] {
		// Span-style advertised traffic window: once all announced
		// broadcasts have arrived the node may sleep early.
		delete(m.announcedBy, f.Src)
		m.maybeSleep()
	}
	// Duplicate filtering on retransmitted unicasts.
	if forMe {
		if last, seen := m.lastSeq[f.Src]; seen && last == fr.seq {
			return
		}
		put(&m.lastSeq, f.Src, fr.seq)
	}
	if m.deliver != nil {
		m.deliver(f.Src, fr.pkt)
	}
}

// handleATIM processes traffic announcements: stay awake for the rest of
// the beacon interval (hard hold for unicast; revocable hold for announced
// broadcasts when the advertised-window improvement is on).
func (m *MAC) handleATIM(f *phy.Frame, forMe, broadcast bool) {
	switch {
	case forMe:
		m.awakeUntil = m.coord.nextBeacon()
		m.respond(f.Src, sizeAck, frame{typ: frameATIMAck})
	case broadcast:
		if m.cfg.AdvertisedWindow {
			// Revocable hold: wait only for the announced broadcasts.
			put(&m.announcedBy, f.Src, true)
		} else {
			m.awakeUntil = m.coord.nextBeacon()
		}
	}
}
