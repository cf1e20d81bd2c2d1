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
	m.enqueue(dst, pkt, power, done)
}

// SendBroadcast queues a broadcast packet, transmitted once at maximum power
// with no acknowledgement. done, if non-nil, fires when the frame has left
// the air (or the job is abandoned): see DoneFunc for what that guarantees.
func (m *MAC) SendBroadcast(pkt *Packet, done DoneFunc) {
	m.enqueue(phy.Broadcast, pkt, m.MaxPower(), done)
}

// enqueue admits a packet unless the queue is full. Jobs come from the free
// list finishJob feeds, so a steady stream of packets allocates none.
func (m *MAC) enqueue(dst int, pkt *Packet, power float64, done DoneFunc) {
	if m.QueueLen() >= queueCap {
		m.stats.QueueDrops++
		return
	}
	var j *job
	if n := len(m.freeJobs); n > 0 {
		j, m.freeJobs = m.freeJobs[n-1], m.freeJobs[:n-1]
	} else {
		j = new(job)
	}
	*j = job{dst: dst, pkt: pkt, power: power, done: done, cw: cwMin}
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
	inWindow := m.coord.inWindow()
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
	m.pending = m.sim.ScheduleFor(sim.LayerMAC, delay, m.attemptFn)
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
		m.pending = m.sim.ScheduleFor(sim.LayerMAC, sifs+m.airtime(sizeCTS)+difs, m.attemptFn)
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
		m.pending = m.sim.ScheduleFor(sim.LayerMAC, busyFor+difs+sim.Time(slots)*slotTime, m.attemptFn)
		return
	}

	switch {
	case announce && j.dst == phy.Broadcast:
		m.sendBroadcastATIM(j)
	case announce:
		m.sendUnicastATIM(j)
	case j.dst == phy.Broadcast:
		m.transmitData(j, thenFinish) // unacknowledged: done once on the air
	default:
		m.sendRTS(j)
	}
}

// airtime is shorthand for the medium's frame duration.
func (m *MAC) airtime(bytes int) sim.Time { return m.med.Airtime(bytes) }

// transmit puts one MAC frame on the air; when it ends, txDone does what
// then says for job j. The frame and its payload live in the MAC:
// radio.StartTx panics on a second concurrent transmission, so at most one
// is on the air, and the medium and its listeners drop their pointers at
// RxEnd, before txDone runs (the medium schedules its end-of-frame event
// first, for the same instant).
func (m *MAC) transmit(dst int, bytes int, power float64, kind radio.TxKind, fr frame, then txThen, j *job) {
	now := m.sim.Now()
	m.wake() // PSM nodes wake up to transmit
	m.radio.StartTx(now, power, kind)
	m.txFr = fr
	m.txFrame = phy.Frame{Src: m.id, Dst: dst, Bytes: bytes, Power: power, Payload: &m.txFr}
	m.txThen, m.txJob = then, j
	end := m.med.Transmit(&m.txFrame)
	m.sim.ScheduleAtFor(sim.LayerMAC, end, m.txDoneFn)
}

// txDone ends the in-flight frame's transmission and runs its continuation,
// unless the job it belonged to is no longer the one in service.
func (m *MAC) txDone() {
	m.radio.EndTx(m.sim.Now())
	then, j := m.txThen, m.txJob
	m.txThen, m.txJob = thenNothing, nil
	if then == thenNothing || m.current != j {
		return
	}
	switch then {
	case thenAwaitCTS:
		m.awaitReply(j, frameCTS, sizeCTS)
	case thenAwaitAck:
		m.awaitReply(j, frameAck, sizeAck)
	case thenAwaitATIMAck:
		m.awaitReply(j, frameATIMAck, sizeAck)
	case thenFinish:
		m.finishJob(j, true)
	case thenAnnounced:
		m.bcastAnnounced = m.coord.interval()
		j.attempts = 0
		j.cw = cwMin
		m.requeue() // data phase becomes eligible once the window closes
	}
}

// awaitReply arms the timeout for the reply to the frame just sent. The
// reply either arrives first (RxEnd calls replyArrived) or the timeout
// fires; both empty the slot before the exchange sends another frame.
func (m *MAC) awaitReply(j *job, reply frameType, replyBytes int) {
	if m.awaitTmr.Pending() {
		panic("mac: reply timeout armed while another is pending")
	}
	m.await, m.awaitJob = reply, j
	onTimeout := m.retryFn
	if reply == frameATIMAck {
		onTimeout = m.retryATIMFn
	}
	m.awaitTmr = m.sim.ScheduleFor(sim.LayerMAC, sifs+m.airtime(replyBytes)+2*slotTime, onTimeout)
}

// replyArrived empties the await slot when the awaited frame came in.
func (m *MAC) replyArrived() {
	m.await = 0
	m.awaitTmr.Cancel()
	m.awaitJob = nil
}

// ---- unicast data path: RTS -> CTS -> DATA -> ACK ----

func (m *MAC) sendRTS(j *job) {
	dataAir := m.airtime(j.pkt.Bytes + HeaderBytes)
	nav := m.sim.Now() + m.airtime(sizeRTS) +
		3*sifs + m.airtime(sizeCTS) + dataAir + m.airtime(sizeAck)
	m.transmit(j.dst, sizeRTS, m.MaxPower(), radio.TxControl, frame{typ: frameRTS, navUntil: nav}, thenAwaitCTS, j)
}

// gotCTS continues the exchange after the CTS arrived, recording the TPC
// feedback.
func (m *MAC) gotCTS(j *job, power float64) {
	if power > 0 && power < m.TxPowerFor(j.dst) {
		put(&m.tpc, j.dst, power)
	}
	m.sendDataAfter(j, sifs)
}

// sendDataAfter arms the deferred DATA frame of job j.
func (m *MAC) sendDataAfter(j *job, d sim.Time) {
	if m.dataTmr.Pending() {
		panic("mac: data frame deferred while another is pending")
	}
	m.dataJob = j
	m.dataTmr = m.sim.ScheduleFor(sim.LayerMAC, d, m.sendDataFn)
}

// sendData transmits the DATA frame of the job sendDataAfter deferred.
func (m *MAC) sendData() {
	j := m.dataJob
	m.dataJob = nil
	if m.current != j {
		return
	}
	if m.radio.Transmitting() {
		// A control response of ours is still on the air; try again as soon
		// as it can have ended.
		m.sendDataAfter(j, m.airtime(sizeAck)+sifs)
		return
	}
	m.transmitData(j, thenAwaitAck)
}

// transmitData puts job j's DATA frame on the air (for a broadcast j.dst is
// phy.Broadcast), assigning its sequence number on the first transmission.
func (m *MAC) transmitData(j *job, then txThen) {
	kind := radio.TxData
	if j.pkt.Kind == PacketControl {
		kind = radio.TxControl
	}
	if j.seq == 0 {
		m.seq++
		j.seq = m.seq
	}
	m.transmit(j.dst, j.pkt.Bytes+HeaderBytes, j.power, kind, frame{typ: frameData, seq: j.seq, pkt: j.pkt}, then, j)
}

// retry is the CTS/ACK timeout: back off and reattempt the current job, or
// fail it.
func (m *MAC) retry() {
	j := m.awaitJob
	m.awaitJob = nil
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
	// The job goes back to the free list before done runs, so a callback
	// that sends the next packet (every routing layer's does) is handed this
	// very pointer. No exchange slot may still name it: the slots compare
	// their job with m.current by pointer.
	if m.txJob == j || m.awaitJob == j || m.dataJob == j {
		panic("mac: finished job still named by a pending exchange step")
	}
	done := j.done
	*j = job{}
	m.freeJobs = append(m.freeJobs, j)
	if done != nil {
		done(ok)
	}
	m.kick()
}

// ---- announcement (ATIM) path ----

func (m *MAC) sendUnicastATIM(j *job) {
	m.stats.ATIMSent++
	m.transmit(j.dst, sizeATIM, m.MaxPower(), radio.TxControl, frame{typ: frameATIM}, thenAwaitATIMAck, j)
}

// retryATIM is the ATIMACK timeout.
func (m *MAC) retryATIM() {
	j := m.awaitJob
	m.awaitJob = nil
	if m.current != j {
		return
	}
	m.await = 0
	j.attempts++
	if j.attempts >= maxATIMAttempts || !m.coord.inWindow() {
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
	m.transmit(phy.Broadcast, sizeATIM, m.MaxPower(), radio.TxControl, frame{typ: frameATIM}, thenAnnounced, j)
}

// ---- beacon hooks (called by the Coordinator) ----

func (m *MAC) onBeacon() {
	clear(m.announcedBy)
	if m.PowerMode() == PSM {
		m.wake()
	}
	m.kick()
}

func (m *MAC) onWindowEnd() {
	m.maybeSleep()
	m.kick()
}
