package mac

import (
	"slices"

	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
)

// maxWindowTries is how many ATIM windows a job may fail to announce in
// before the MAC gives up on it.
const maxWindowTries = 3

// maxATIMAttempts bounds ATIM retransmissions within one window.
const maxATIMAttempts = 3

// SendUnicast queues a network-layer packet for dst. The data frame is
// transmitted at the given power (control packets are forced to maximum
// power per the paper's Eq. 2); RTS/CTS/ACK always go at maximum power.
// done, if non-nil, fires exactly once with the outcome — unless the queue
// overflows, in which case the packet is dropped silently (like an ns-2
// interface queue) and done is never invoked; the drop is counted in Stats.
func (m *MAC) SendUnicast(dst int, pkt *Packet, power float64, done DoneFunc) {
	if dst == m.id || dst == phy.Broadcast {
		panic("mac: SendUnicast requires a remote unicast destination")
	}
	if pkt.Kind == PacketControl || power <= 0 {
		power = m.MaxPower()
	}
	m.enqueue(&job{dst: dst, pkt: pkt, power: power, done: done, cw: cwMin})
}

// SendBroadcast queues a broadcast packet, transmitted once at maximum power
// with no acknowledgement. done, if non-nil, fires when the frame has been
// put on the air (or the job is abandoned).
func (m *MAC) SendBroadcast(pkt *Packet, done DoneFunc) {
	m.enqueue(&job{dst: phy.Broadcast, pkt: pkt, power: m.MaxPower(), done: done, cw: cwMin})
}

func (m *MAC) enqueue(j *job) {
	queued := len(m.queue)
	if m.current != nil {
		queued++
	}
	if queued >= queueCap {
		m.stats.QueueDrops++
		return
	}
	m.queue = append(m.queue, j)
	m.kick()
}

// QueueLen returns the number of packets waiting (including in service).
func (m *MAC) QueueLen() int {
	n := len(m.queue)
	if m.current != nil {
		n++
	}
	return n
}

// eligible reports whether job j may contend for the channel right now, and
// whether the next step is an announcement (ATIM) rather than data.
func (m *MAC) eligible(j *job) (ok, announce bool) {
	now := m.sim.Now()
	inWindow := m.coord.inWindow(now)
	iv := m.coord.interval()
	if j.dst == phy.Broadcast {
		if !m.anyPSMNeighbor() {
			return true, false
		}
		if m.bcastAnnounced == iv && iv != 0 {
			// Announced this interval; data goes out after the window.
			return !inWindow, false
		}
		return inWindow, true
	}
	if m.coord.PowerModeOf(j.dst) == AM {
		return true, false
	}
	if m.announcedTo[j.dst] == iv && iv != 0 {
		return !inWindow, false
	}
	return inWindow, true
}

func (m *MAC) hasEligibleJob() bool {
	for _, j := range m.queue {
		if ok, _ := m.eligible(j); ok {
			return true
		}
	}
	return false
}

// kick starts servicing the first eligible queued job if the MAC is free.
func (m *MAC) kick() {
	if m.current != nil {
		return
	}
	for i, j := range m.queue {
		ok, _ := m.eligible(j)
		if !ok {
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		m.current = j
		m.scheduleAttempt()
		return
	}
	m.maybeSleep()
}

// requeue parks the current job back at the head of the queue (e.g. after a
// successful announcement, to wait for the window to close).
func (m *MAC) requeue() {
	j := m.current
	m.current = nil
	m.queue = slices.Insert(m.queue, 0, j)
	m.kick()
}

// scheduleAttempt arms the DIFS + backoff timer for the current job.
func (m *MAC) scheduleAttempt() {
	j := m.current
	slots := m.sim.RNG().IntN(j.cw + 1)
	delay := difs + sim.Time(slots)*slotTime
	m.pending = schedule(m.sim, delay, m.attemptFn)
}

// attempt performs the carrier-sense check and transmits the next frame of
// the current job, or defers if the channel is busy.
func (m *MAC) attempt() {
	j := m.current
	if j == nil {
		return
	}
	now := m.sim.Now()

	ok, announce := m.eligible(j)
	if !ok {
		// The window state changed under us (e.g. the ATIM window closed
		// before our announcement got through). Park the job.
		m.windowMiss(j)
		return
	}

	// Defer to our own in-flight frame or pending CTS/ACK response.
	if m.radio.Transmitting() || m.respTimer.Pending() {
		m.pending = schedule(m.sim, sifs+m.airtime(sizeCTS)+difs, m.attemptFn)
		return
	}

	busyFor := sim.Time(0)
	if until := m.med.BusyUntil(m.id); until > now {
		busyFor = until - now
	}
	if nav := m.navUntil; nav > now && nav-now > busyFor {
		busyFor = nav - now
	}
	if m.radio.Receiving() && busyFor == 0 {
		busyFor = sifs // reception tail not covered by Busy (edge)
	}
	if busyFor > 0 {
		slots := m.sim.RNG().IntN(j.cw + 1)
		m.pending = schedule(m.sim, busyFor+difs+sim.Time(slots)*slotTime, m.attemptFn)
		return
	}

	switch {
	case announce && j.dst == phy.Broadcast:
		m.sendBroadcastATIM(j)
	case announce:
		m.sendUnicastATIM(j)
	case j.dst == phy.Broadcast:
		m.sendBroadcastData(j)
	default:
		m.sendRTS(j)
	}
}

// airtime is shorthand for the medium's frame duration.
func (m *MAC) airtime(bytes int) sim.Time { return m.med.Airtime(bytes) }

// transmit puts one MAC frame on the air and runs after when it ends. The
// frame lives in the MAC: radio.StartTx panics on a second concurrent
// transmission, so at most one is on the air, and the medium and its
// listeners drop their pointer at RxEnd, before txDone runs (the medium
// schedules its end-of-frame event first, for the same instant).
func (m *MAC) transmit(dst int, bytes int, power float64, kind radio.TxKind, fr *frame, after func()) {
	now := m.sim.Now()
	m.wake() // PSM nodes wake up to transmit
	m.radio.StartTx(now, power, kind)
	m.txFrame = phy.Frame{Src: m.id, Dst: dst, Bytes: bytes, Power: power, Payload: fr}
	m.txAfter = after
	end := m.med.Transmit(&m.txFrame)
	scheduleAt(m.sim, end, m.txDoneFn)
}

// txDone ends the in-flight frame's transmission and runs its continuation.
func (m *MAC) txDone() {
	m.radio.EndTx(m.sim.Now())
	if after := m.txAfter; after != nil {
		m.txAfter = nil
		after()
	}
}

// ---- unicast data path: RTS -> CTS -> DATA -> ACK ----

func (m *MAC) sendRTS(j *job) {
	dataAir := m.airtime(j.pkt.Bytes + sizeMACHdr)
	nav := m.sim.Now() + m.airtime(sizeRTS) +
		3*sifs + m.airtime(sizeCTS) + dataAir + m.airtime(sizeAck)
	fr := &frame{typ: frameRTS, navUntil: nav}
	m.transmit(j.dst, sizeRTS, m.MaxPower(), radio.TxControl, fr, func() {
		if m.current != j {
			return
		}
		m.await = frameCTS
		timeout := sifs + m.airtime(sizeCTS) + 2*slotTime
		m.awaitTmr = schedule(m.sim, timeout, func() { m.retry(j) })
	})
}

// gotCTS continues the exchange after the CTS arrived, recording the TPC
// feedback.
func (m *MAC) gotCTS(j *job, power float64) {
	if power > 0 && power < m.TxPowerFor(j.dst) {
		m.tpc[j.dst] = power
	}
	schedule(m.sim, sifs, func() {
		if m.current != j {
			return
		}
		m.sendData(j)
	})
}

func (m *MAC) sendData(j *job) {
	if m.radio.Transmitting() {
		// A control response of ours is still on the air; try again as soon
		// as it can have ended.
		schedule(m.sim, m.airtime(sizeAck)+sifs, func() {
			if m.current == j {
				m.sendData(j)
			}
		})
		return
	}
	kind := radio.TxData
	if j.pkt.Kind == PacketControl {
		kind = radio.TxControl
	}
	if j.seq == 0 {
		m.seq++
		j.seq = m.seq
	}
	fr := &frame{typ: frameData, seq: j.seq, pkt: j.pkt}
	m.transmit(j.dst, j.pkt.Bytes+sizeMACHdr, j.power, kind, fr, func() {
		if m.current != j {
			return
		}
		m.await = frameAck
		timeout := sifs + m.airtime(sizeAck) + 2*slotTime
		m.awaitTmr = schedule(m.sim, timeout, func() { m.retry(j) })
	})
}

// retry backs off and reattempts the current job, or fails it.
func (m *MAC) retry(j *job) {
	if m.current != j {
		return
	}
	m.await = 0
	j.attempts++
	m.stats.Retries++
	if j.attempts >= retryLimit {
		m.finishJob(j, false)
		return
	}
	j.cw = min(2*(j.cw+1)-1, cwMax)
	m.scheduleAttempt()
}

// finishJob completes the current job and services the queue.
func (m *MAC) finishJob(j *job, ok bool) {
	if ok {
		if j.dst == phy.Broadcast {
			m.stats.BroadcastSent++
		} else {
			m.stats.UnicastSent++
		}
	} else {
		m.stats.UnicastFailed++
	}
	m.await = 0
	m.current = nil
	if j.done != nil {
		j.done(ok)
	}
	m.kick()
}

// ---- broadcast data path ----

func (m *MAC) sendBroadcastData(j *job) {
	kind := radio.TxData
	if j.pkt.Kind == PacketControl {
		kind = radio.TxControl
	}
	if j.seq == 0 {
		m.seq++
		j.seq = m.seq
	}
	fr := &frame{typ: frameData, seq: j.seq, pkt: j.pkt}
	m.transmit(phy.Broadcast, j.pkt.Bytes+sizeMACHdr, j.power, kind, fr, func() {
		if m.current != j {
			return
		}
		m.finishJob(j, true)
	})
}

// ---- announcement (ATIM) path ----

func (m *MAC) sendUnicastATIM(j *job) {
	m.stats.ATIMSent++
	fr := &frame{typ: frameATIM}
	m.transmit(j.dst, sizeATIM, m.MaxPower(), radio.TxControl, fr, func() {
		if m.current != j {
			return
		}
		m.await = frameATIMAck
		timeout := sifs + m.airtime(sizeAck) + 2*slotTime
		m.awaitTmr = schedule(m.sim, timeout, func() { m.retryATIM(j) })
	})
}

func (m *MAC) retryATIM(j *job) {
	if m.current != j {
		return
	}
	m.await = 0
	j.attempts++
	if j.attempts >= maxATIMAttempts || !m.coord.inWindow(m.sim.Now()) {
		m.windowMiss(j)
		return
	}
	j.cw = min(2*(j.cw+1)-1, cwMax)
	m.scheduleAttempt()
}

// windowMiss records a failed announcement window for the current job.
func (m *MAC) windowMiss(j *job) {
	j.attempts = 0
	j.cw = cwMin
	j.windowTries++
	if j.windowTries >= maxWindowTries {
		m.finishJob(j, false)
		return
	}
	m.requeue()
}

func (m *MAC) sendBroadcastATIM(j *job) {
	m.stats.ATIMSent++
	fr := &frame{typ: frameATIM}
	m.transmit(phy.Broadcast, sizeATIM, m.MaxPower(), radio.TxControl, fr, func() {
		if m.current != j {
			return
		}
		m.bcastAnnounced = m.coord.interval()
		j.attempts = 0
		j.cw = cwMin
		m.requeue() // data phase becomes eligible once the window closes
	})
}

// ---- beacon hooks (called by the Coordinator) ----

func (m *MAC) onBeacon() {
	clear(m.announcedBy)
	if m.mode == PSM {
		m.wake()
	}
	m.kick()
}

func (m *MAC) onWindowEnd() {
	m.maybeSleep()
	m.kick()
}
