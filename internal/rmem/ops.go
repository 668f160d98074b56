package rmem

import (
	"fmt"
	"strings"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/reliable"
)

// opIssued records metrics for a locally-completed meta-instruction issue
// (trap through network acceptance — the paper's WRITE "local completion").
func (m *Manager) opIssued(op Op, start des.Time) {
	tr := m.Node.Env.Tracer()
	if tr == nil {
		return
	}
	kind := strings.ToLower(op.String())
	d := m.Node.Env.Now().Sub(start)
	tr.Count("rmem."+kind+".issued", 1)
	tr.Observe("rmem."+kind+".issue", d)
	if tr.EventsEnabled() {
		tr.Span(m.track, "rmem", op.String()+" issue", time.Duration(start), d)
	}
}

// opCompleted records round-trip metrics when a READ/CAS reply deposits.
func (m *Manager) opCompleted(po *pendingOp) {
	tr := m.Node.Env.Tracer()
	if tr == nil {
		return
	}
	kind := strings.ToLower(po.op.String())
	if po.err != nil {
		tr.Count("rmem."+kind+".nacked", 1)
		return
	}
	d := po.at.Sub(po.start)
	tr.Count("rmem."+kind+".completed", 1)
	tr.Observe("rmem."+kind+".latency", d)
	if tr.EventsEnabled() {
		tr.Span(m.track, "rmem", po.op.String(), time.Duration(po.start), d)
	}
}

// relCount bumps a reliability-layer counter metric.
func (m *Manager) relCount(key string) {
	if tr := m.Node.Env.Tracer(); tr != nil {
		tr.Count(key, 1)
	}
}

// relRecovered records a successful operation that needed retransmission:
// the recovery latency (first transmission → completion) feeds the
// "reliable.recovery" histogram.
func (m *Manager) relRecovered(first des.Time) {
	if tr := m.Node.Env.Tracer(); tr != nil {
		tr.Observe("reliable.recovery", m.Node.Env.Now().Sub(first))
	}
}

// attemptBase returns the size-scaled per-attempt timeout base for a
// reliable operation whose round trip moves rtCells cells: the model's
// fixed RetryTimeout, plus the notification budget (an ack follows the
// destination's control transfer when one was requested), plus twice the
// pipeline time of the cells in flight — so an 8 KB block is never
// declared lost while still streaming.
func (m *Manager) attemptBase(rtCells int) des.Duration {
	p := m.Node.P
	return p.RetryTimeout + p.NotifyOverhead() +
		2*des.Duration(rtCells)*(p.CellWireTime()+p.RxPerCell())
}

// awaitAck sends frame to dst and blocks until its WRACK (or NACK)
// arrives, retransmitting on timeout with capped exponential backoff.
// Runs the full at-most-once client side for reliable WRITEs.
func (m *Manager) awaitAck(p *des.Proc, dst int, cat string, seq uint32, frame []byte, rtCells int) error {
	n := m.Node
	env := n.Env
	aw := &ackWait{q: des.NewWaitQueue(env)}
	m.pendingAcks[seq] = aw
	base := m.attemptBase(rtCells)
	first := env.Now()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			m.relCount("reliable.retries")
		}
		n.SendFrame(p, dst, Proto, cat, frame)
		timedOut := false
		cancel := env.After(m.relCfg.AttemptTimeout(base, attempt), func() {
			timedOut = true
			aw.q.WakeAll()
		})
		for !aw.done && !timedOut {
			aw.q.Wait(p)
		}
		cancel()
		if aw.done {
			if attempt > 0 {
				m.relRecovered(first)
			}
			return aw.err
		}
		if attempt >= m.relCfg.MaxRetries {
			delete(m.pendingAcks, seq)
			m.relCount("reliable.giveup")
			return ErrTimeout
		}
	}
}

// checkLocal performs the sender-side descriptor validation every
// meta-instruction begins with: trap into the emulation, verify rights
// against the local descriptor, verify bounds.
func (i *Import) checkLocal(p *des.Proc, need Rights, off, count int) error {
	n := i.m.Node
	n.UseCPU(p, i.cat, n.P.MetaTrap+n.P.PermCheck)
	if i.stale {
		return ErrStale
	}
	if off < 0 || count < 0 || off+count > i.size {
		return ErrBounds
	}
	_ = need // the sender trusts its imported rights; the owner re-checks
	return nil
}

// Write is the message-register variant of the WRITE meta-instruction: up
// to MsgRegisterCap bytes gathered from the shared registers into a single
// cell. Non-blocking and unacknowledged: on return the data has been
// accepted by the network, not delivered. notify asks the destination
// kernel to run the segment's control-transfer machinery on arrival
// (subject to the segment's notification mode).
func (i *Import) Write(p *des.Proc, off int, data []byte, notify bool) error {
	n := i.m.Node
	start := n.Env.Now()
	if len(data) > MsgRegisterCap {
		return ErrTooBig
	}
	if err := i.checkLocal(p, RightWrite, off, len(data)); err != nil {
		return err
	}
	n.UseCPU(p, i.cat, n.P.RegisterFormat)
	msg := &wireMsg{kind: kindWrite, notify: notify, swap: i.swap, seg: i.segID, gen: i.gen, off: uint32(off), data: data,
		fence: i.fence, epoch: i.epoch}
	if i.rel {
		msg.rel = true
		msg.rgen, msg.rseq = i.m.relSend.Next()
		frame := msg.encode()
		err := i.m.awaitAck(p, i.node, i.cat, msg.rseq, frame, 1+n.P.CellsFor(len(frame)))
		i.m.opIssued(OpWrite, start)
		return err
	}
	n.SendFrame(p, i.node, Proto, i.cat, msg.encode())
	i.m.opIssued(OpWrite, start)
	return nil
}

// WriteBlock is the block variant of WRITE: data moves directly from
// source memory to the remote segment with no message-register gather.
// Transfers larger than the framing limit are split into several frames
// (back-to-back on the wire; the destination deposits each on arrival).
func (i *Import) WriteBlock(p *des.Proc, off int, data []byte, notify bool) error {
	n := i.m.Node
	start := n.Env.Now()
	if len(data) > MaxBlock {
		return ErrTooBig
	}
	if err := i.checkLocal(p, RightWrite, off, len(data)); err != nil {
		return err
	}
	chunk := 32 * 1024 // < atm.MaxFrame with headers
	if i.rel {
		// Loss recovery retransmits whole frames (a frame missing any cell
		// is discarded at reassembly), so reliable blocks move in chunks
		// small enough that a retransmission is likely to get through.
		chunk = n.P.ReliableChunk
	}
	for done := 0; ; {
		end := done + chunk
		if end > len(data) {
			end = len(data)
		}
		// Only the final chunk carries the notify flag: one control
		// transfer per logical operation.
		last := end == len(data)
		msg := &wireMsg{kind: kindWrite, notify: notify && last, swap: i.swap, seg: i.segID, gen: i.gen, off: uint32(off + done), data: data[done:end],
			fence: i.fence, epoch: i.epoch}
		if i.rel {
			msg.rel = true
			msg.rgen, msg.rseq = i.m.relSend.Next()
			frame := msg.encode()
			if err := i.m.awaitAck(p, i.node, i.cat, msg.rseq, frame, 1+n.P.CellsFor(len(frame))); err != nil {
				return err
			}
		} else {
			n.SendFrame(p, i.node, Proto, i.cat, msg.encode())
		}
		if last {
			i.m.opIssued(OpWrite, start)
			return nil
		}
		done = end
	}
}

// ReadOp is an outstanding non-blocking READ. The issuing process may
// proceed and later Wait for the deposit, or poll the destination memory
// itself (the paper's "repeatedly checking the destination memory
// location").
type ReadOp struct {
	m   *Manager
	req uint32
	po  *pendingOp
}

// Done reports whether the reply has been deposited.
func (r *ReadOp) Done() bool { return r.po.done }

// Err returns the final status (nil before completion).
func (r *ReadOp) Err() error { return r.po.err }

// Wait blocks until the deposit completes or timeout elapses (timeout <= 0
// waits forever). On timeout the pending entry is abandoned: a late reply
// is discarded by the kernel. Each successful wake charges one user-level
// poll of the completion word.
//
// On a reliable import, Wait is also the retransmission engine: each
// unanswered per-attempt timeout resends the stored request frame (same
// request id and reliability identity, so the remote kernel deduplicates
// and the reply matches) until the reply lands, the retry budget is
// exhausted, or the caller's overall timeout expires.
func (r *ReadOp) Wait(p *des.Proc, timeout des.Duration) error {
	if r.po.relFrame != nil {
		return r.waitReliable(p, timeout)
	}
	env := r.m.Node.Env
	deadline := env.Now().Add(timeout)
	var timedOut bool
	var cancel func()
	if timeout > 0 {
		cancel = env.Schedule(deadline, func() {
			timedOut = true
			r.po.q.WakeAll()
		})
	}
	for !r.po.done && !timedOut {
		r.po.q.Wait(p)
	}
	if cancel != nil {
		cancel()
	}
	r.m.Node.UseCPU(p, cluster.CatClient, r.m.Node.P.SpinPoll)
	if !r.po.done {
		delete(r.m.pending, r.req) // abandon; late reply is dropped
		return ErrTimeout
	}
	return r.po.err
}

func (r *ReadOp) waitReliable(p *des.Proc, timeout des.Duration) error {
	m := r.m
	env := m.Node.Env
	var expired bool
	var cancelAll func()
	if timeout > 0 {
		cancelAll = env.After(timeout, func() {
			expired = true
			r.po.q.WakeAll()
		})
		defer cancelAll()
	}
	for attempt := 0; ; attempt++ {
		timedOut := false
		cancel := env.After(m.relCfg.AttemptTimeout(r.po.relBase, attempt), func() {
			timedOut = true
			r.po.q.WakeAll()
		})
		for !r.po.done && !timedOut && !expired {
			r.po.q.Wait(p)
		}
		cancel()
		m.Node.UseCPU(p, cluster.CatClient, m.Node.P.SpinPoll)
		if r.po.done {
			if attempt > 0 {
				m.relRecovered(r.po.start)
			}
			return r.po.err
		}
		if expired || attempt >= m.relCfg.MaxRetries {
			delete(m.pending, r.req) // abandon; a late reply is dropped
			m.relCount("reliable.giveup")
			return ErrTimeout
		}
		m.relCount("reliable.retries")
		m.Node.SendFrame(p, r.po.relDst, Proto, r.po.relCat, r.po.relFrame)
	}
}

// ReadAsync issues the READ meta-instruction: ask the remote kernel for
// count bytes at soff of the imported segment, to be deposited into the
// local segment dst at doff. Returns immediately with the outstanding
// operation.
func (i *Import) ReadAsync(p *des.Proc, soff, count int, dst *Segment, doff int, notify bool) (*ReadOp, error) {
	if count > MaxBlock {
		return nil, ErrTooBig
	}
	if err := i.checkLocal(p, RightRead, soff, count); err != nil {
		return nil, err
	}
	if doff < 0 || doff+count > dst.Size() {
		return nil, ErrBounds
	}
	m := i.m
	n := m.Node
	m.nextReq++
	req := m.nextReq
	po := &pendingOp{op: OpRead, dst: dst, doff: doff, swap: i.swap, start: n.Env.Now(), q: des.NewWaitQueue(n.Env)}
	m.pending[req] = po
	msg := &wireMsg{kind: kindRead, notify: notify, seg: i.segID, gen: i.gen,
		off: uint32(soff), count: uint32(count), req: req, fence: i.fence, epoch: i.epoch}
	if i.rel {
		msg.rel = true
		msg.rgen, msg.rseq = m.relSend.Next()
		po.relFrame = msg.encode()
		po.relDst = i.node
		po.relCat = i.cat
		po.relBase = m.attemptBase(1 + n.P.CellsFor(count))
		n.SendFrame(p, i.node, Proto, i.cat, po.relFrame)
	} else {
		n.SendFrame(p, i.node, Proto, i.cat, msg.encode())
	}
	m.opIssued(OpRead, po.start)
	return &ReadOp{m: m, req: req, po: po}, nil
}

// Read is the blocking convenience around ReadAsync: issue, then spin-wait
// for the deposit. timeout <= 0 waits forever. On a reliable import, large
// reads move in ReliableChunk pieces (each retried independently) so a
// single lost cell never forces a full-block retransmission.
func (i *Import) Read(p *des.Proc, soff, count int, dst *Segment, doff int, timeout des.Duration) error {
	chunk := count
	if i.rel && chunk > i.m.Node.P.ReliableChunk {
		chunk = i.m.Node.P.ReliableChunk
	}
	for done := 0; ; {
		end := done + chunk
		if end > count {
			end = count
		}
		op, err := i.ReadAsync(p, soff+done, end-done, dst, doff+done, false)
		if err != nil {
			return err
		}
		if err := op.Wait(p, timeout); err != nil {
			return err
		}
		if end == count {
			return nil
		}
		done = end
	}
}

// CAS issues the compare-and-swap meta-instruction on the 4-byte word at
// off: if the remote word equals old it is atomically replaced by new.
// The success/failure result is deposited into local memory at
// (result, roff) — 1 for success, 0 for failure — and also returned.
func (i *Import) CAS(p *des.Proc, off int, old, new uint32, result *Segment, roff int, timeout des.Duration) (bool, error) {
	if err := i.checkLocal(p, RightCAS, off, 4); err != nil {
		return false, err
	}
	if off%4 != 0 {
		return false, ErrUnaligned
	}
	if roff < 0 || roff+4 > result.Size() {
		return false, ErrBounds
	}
	m := i.m
	n := m.Node
	n.UseCPU(p, i.cat, n.P.CASFormat)
	m.nextReq++
	req := m.nextReq
	po := &pendingOp{op: OpCAS, dst: result, doff: roff, start: n.Env.Now(), q: des.NewWaitQueue(n.Env)}
	m.pending[req] = po
	msg := &wireMsg{kind: kindCAS, seg: i.segID, gen: i.gen, off: uint32(off), oldW: old, newW: new, req: req,
		fence: i.fence, epoch: i.epoch}
	if i.rel {
		msg.rel = true
		msg.rgen, msg.rseq = m.relSend.Next()
		po.relFrame = msg.encode()
		po.relDst = i.node
		po.relCat = i.cat
		po.relBase = m.attemptBase(2)
		n.SendFrame(p, i.node, Proto, i.cat, po.relFrame)
	} else {
		n.SendFrame(p, i.node, Proto, i.cat, msg.encode())
	}
	m.opIssued(OpCAS, po.start)
	ro := &ReadOp{m: m, req: req, po: po}
	if err := ro.Wait(p, timeout); err != nil {
		return false, err
	}
	return po.success, nil
}

// ---------------------------------------------------------------------------
// Receive side: the kernel's co-processor emulation. Runs in the node's RX
// drain context; data-only requests complete entirely here, with no action
// by the destination process.

func (m *Manager) handle(p *des.Proc, src int, frame []byte) {
	n := m.Node
	msg, err := decode(frame)
	if err != nil {
		n.Faults = append(n.Faults, fmt.Errorf("rmem: node %d: %w", n.ID, err))
		return
	}
	if msg.rel {
		switch msg.kind {
		case kindWrite, kindRead, kindCAS:
			if !m.admitReliable(p, src, msg) {
				return
			}
		}
	}
	switch msg.kind {
	case kindWrite:
		m.handleWrite(p, src, msg)
	case kindRead:
		m.handleRead(p, src, msg)
	case kindCAS:
		m.handleCAS(p, src, msg)
	case kindReadReply:
		m.handleReadReply(p, msg)
	case kindCASReply:
		m.handleCASReply(p, msg)
	case kindWriteAck:
		m.handleWriteAck(msg)
	case kindNack:
		if msg.rel {
			// A reliable WRITE's NACK: deliver the error to the waiting
			// writer instead of the fault log.
			if aw, ok := m.pendingAcks[msg.rseq]; ok {
				delete(m.pendingAcks, msg.rseq)
				aw.err = nackErr(msg.code)
				aw.done = true
				aw.q.WakeAll()
			}
			return
		}
		m.WriteFaults = append(m.WriteFaults, fmt.Errorf("rmem: write to node %d seg %d+%d: %w", src, msg.seg, msg.off, nackErr(msg.code)))
	}
}

// admitReliable runs the at-most-once gate on an arriving reliable
// request. Fresh requests pass through to their handler; duplicates are
// re-acked (WRITE) or answered from the reply cache (READ/CAS) without
// re-execution; stale-generation frames are dropped.
func (m *Manager) admitReliable(p *des.Proc, src int, msg *wireMsg) bool {
	switch m.relDedup.Accept(src, msg.rgen, msg.rseq) {
	case reliable.Fresh:
		return true
	case reliable.Stale:
		m.relCount("reliable.stale.dropped")
		return false
	}
	m.relCount("reliable.dup.dropped")
	switch msg.kind {
	case kindWrite:
		// The data was already applied (or the original frame is about to
		// arrive and this is a reorder ghost — then the ack matches anyway
		// because the identity is the same). Ack again: the first ack may
		// have been the casualty.
		m.sendWriteAck(p, src, msg)
	case kindRead, kindCAS:
		if rep, ok := m.relDedup.Reply(src, msg.rseq); ok {
			m.relCount("reliable.replay.replies")
			m.Node.SendFrame(p, src, Proto, cluster.CatReply, rep)
		} else if msg.kind == kindRead {
			// READ is idempotent: a reply evicted from the cache can be
			// recomputed safely.
			return true
		} else {
			// A CAS whose reply fell out of the cache must not re-execute;
			// dropping it leaves the requester to time out, preserving
			// at-most-once.
			m.relCount("reliable.replay.miss")
		}
	}
	return false
}

// sendWriteAck acknowledges a reliable WRITE by echoing its identity.
func (m *Manager) sendWriteAck(p *des.Proc, dst int, msg *wireMsg) {
	rep := &wireMsg{kind: kindWriteAck, rel: true, rgen: msg.rgen, rseq: msg.rseq}
	m.Node.SendFrame(p, dst, Proto, cluster.CatReply, rep.encode())
}

// handleWriteAck completes a pending reliable WRITE. Acks from a previous
// sender incarnation (stale generation) are ignored.
func (m *Manager) handleWriteAck(msg *wireMsg) {
	if msg.rgen != m.relSend.Generation() {
		return
	}
	aw, ok := m.pendingAcks[msg.rseq]
	if !ok {
		return // duplicate ack, or the writer already gave up
	}
	delete(m.pendingAcks, msg.rseq)
	aw.done = true
	aw.q.WakeAll()
}

// validate checks an incoming request against the descriptor tables. The
// lease-epoch check comes first: a fenced request from a previous
// incarnation must be refused before the segment lookup, because after a
// cold boot the new incarnation may have recycled the very same (id, gen)
// for different memory.
func (m *Manager) validate(src int, msg *wireMsg, need Rights, count int) (*Segment, error) {
	if msg.fence && msg.epoch != m.incarnation {
		m.relCount("rmem.fenced")
		return nil, ErrStaleGeneration
	}
	s, ok := m.exports[msg.seg]
	if !ok {
		return nil, ErrRevoked
	}
	if s.gen != msg.gen {
		return nil, ErrStale
	}
	if s.rightsFor(src)&need == 0 {
		return nil, ErrNoRights
	}
	if int(msg.off)+count > len(s.buf) {
		return nil, ErrBounds
	}
	if need&(RightWrite|RightCAS) != 0 && s.inhibited {
		return nil, ErrInhibited
	}
	return s, nil
}

func (m *Manager) nack(p *des.Proc, dst int, msg *wireMsg, err error) {
	rep := &wireMsg{kind: kindNack, seg: msg.seg, gen: msg.gen, off: msg.off, code: errNack(err),
		rel: msg.rel, rgen: msg.rgen, rseq: msg.rseq, fence: msg.fence, epoch: msg.epoch}
	m.Node.SendFrame(p, dst, Proto, cluster.CatReply, rep.encode())
}

func (m *Manager) handleWrite(p *des.Proc, src int, msg *wireMsg) {
	s, err := m.validate(src, msg, RightWrite, len(msg.data))
	if err != nil {
		m.nack(p, src, msg, err)
		return
	}
	// The per-cell deposit cost (translation walk + copy) was charged in
	// the drain loop as each cell arrived; here the completed frame's data
	// becomes visible in the destination address space. The swap bit asks
	// for byte-order conversion in flight (§3.6).
	if msg.swap {
		m.Node.UseCPU(p, cluster.CatRx, des.Duration(m.Node.P.CellsFor(len(msg.data)))*m.Node.P.ByteSwapPerCell)
		swapWords(s.buf[msg.off:int(msg.off)+len(msg.data)], msg.data)
	} else {
		copy(s.buf[msg.off:], msg.data)
	}
	s.MarkWritten(int(msg.off), len(msg.data))
	s.RemoteWrites++
	m.maybeNotify(p, s, src, OpWrite, int(msg.off), len(msg.data), msg.notify)
	if msg.rel {
		m.sendWriteAck(p, src, msg)
	}
}

func (m *Manager) handleRead(p *des.Proc, src int, msg *wireMsg) {
	n := m.Node
	s, err := m.validate(src, msg, RightRead, int(msg.count))
	if err != nil {
		rep := &wireMsg{kind: kindReadReply, req: msg.req, status: errNack(err)}
		enc := rep.encode()
		if msg.rel {
			m.relDedup.SaveReply(src, msg.rseq, enc)
		}
		n.SendFrame(p, src, Proto, cluster.CatReply, enc)
		return
	}
	// Fetch through the translation tables and format the reply. The
	// descriptor lookup happens once up front; the per-cell fetch cost is
	// interleaved with the cell pushes so a block read streams rather than
	// fetching everything before the first cell hits the wire.
	n.UseCPU(p, cluster.CatReply, n.P.ReadFetch-n.P.ReadFetchPerCell)
	data := s.buf[msg.off : int(msg.off)+int(msg.count)]
	s.RemoteReads++
	rep := &wireMsg{kind: kindReadReply, req: msg.req, data: data}
	enc := rep.encode()
	if msg.rel {
		m.relDedup.SaveReply(src, msg.rseq, enc)
	}
	n.SendFrameEx(p, src, Proto, cluster.CatReply, enc, n.P.ReadFetchPerCell)
	m.maybeNotify(p, s, src, OpRead, int(msg.off), int(msg.count), msg.notify)
}

func (m *Manager) handleCAS(p *des.Proc, src int, msg *wireMsg) {
	n := m.Node
	s, err := m.validate(src, msg, RightCAS, 4)
	if err != nil {
		rep := &wireMsg{kind: kindCASReply, req: msg.req, status: errNack(err)}
		enc := rep.encode()
		if msg.rel {
			m.relDedup.SaveReply(src, msg.rseq, enc)
		}
		n.SendFrame(p, src, Proto, cluster.CatReply, enc)
		return
	}
	n.UseCPU(p, cluster.CatReply, n.P.CASExec)
	cur := be32(s.buf[msg.off:])
	success := cur == msg.oldW
	if success {
		putbe32(s.buf[msg.off:], msg.newW)
		s.MarkWritten(int(msg.off), 4)
	}
	s.RemoteCAS++
	rep := &wireMsg{kind: kindCASReply, req: msg.req, success: success}
	enc := rep.encode()
	if msg.rel {
		// At-most-once hinges on this cache: a retransmitted CAS replays
		// the recorded outcome instead of swapping twice.
		m.relDedup.SaveReply(src, msg.rseq, enc)
	}
	n.SendFrame(p, src, Proto, cluster.CatReply, enc)
	m.maybeNotify(p, s, src, OpCAS, int(msg.off), 4, msg.notify)
}

func (m *Manager) handleReadReply(p *des.Proc, msg *wireMsg) {
	n := m.Node
	po, ok := m.pending[msg.req]
	if !ok {
		return // abandoned (timed out); drop
	}
	delete(m.pending, msg.req)
	po.at = n.Env.Now()
	if msg.status != 0 {
		po.err = nackErr(msg.status)
	} else {
		// Per-cell deposit was charged in the drain loop on arrival.
		if po.swap {
			n.UseCPU(p, cluster.CatRx, des.Duration(n.P.CellsFor(len(msg.data)))*n.P.ByteSwapPerCell)
			swapWords(po.dst.buf[po.doff:po.doff+len(msg.data)], msg.data)
		} else {
			copy(po.dst.buf[po.doff:], msg.data)
		}
		po.dst.MarkWritten(po.doff, len(msg.data))
	}
	po.done = true
	m.opCompleted(po)
	po.q.WakeAll()
}

func (m *Manager) handleCASReply(p *des.Proc, msg *wireMsg) {
	n := m.Node
	po, ok := m.pending[msg.req]
	if !ok {
		return
	}
	delete(m.pending, msg.req)
	po.at = n.Env.Now()
	if msg.status != 0 {
		po.err = nackErr(msg.status)
	} else {
		n.UseCPU(p, cluster.CatRx, n.P.DepositResult)
		po.success = msg.success
		var w uint32
		if msg.success {
			w = 1
		}
		putbe32(po.dst.buf[po.doff:], w)
		po.dst.MarkWritten(po.doff, 4)
	}
	po.done = true
	m.opCompleted(po)
	po.q.WakeAll()
}

// swapWords copies src into dst reversing the byte order of each 4-byte
// word; a trailing partial word is copied unchanged. This is the §3.6
// byte-order conversion performed during the PIO copy.
func swapWords(dst, src []byte) {
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = src[i+3], src[i+2], src[i+1], src[i]
	}
	copy(dst[n:], src[n:])
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putbe32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
