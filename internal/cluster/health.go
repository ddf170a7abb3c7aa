package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// memberState wraps a member with the coordinator's failure-detection
// and hinted-handoff state. Every entry in Cluster.nodes is a
// *memberState, so all routing, replication, scan and rebalance traffic
// flows through these wrappers: transport failures feed the detector
// passively, probe results feed it periodically, and replica writes a
// down member would have lost are buffered here until it recovers.
type memberState struct {
	member

	// consecFails counts consecutive failed probes or transport-level
	// op failures; threshold consecutive failures mark the member down.
	consecFails atomic.Int32
	down        atomic.Bool
	// everDown latches once the member has been marked down. It gates
	// the miss-at-primary read fallback: only a member that may have
	// rejoined with missing data makes a primary miss ambiguous, so a
	// never-failed cluster pays nothing for the safety net.
	everDown  atomic.Bool
	threshold int32

	// hmu guards the hinted-handoff buffer. Appends happen under the
	// write primary's wmu (via mirrorBatch), so the buffer preserves
	// per-key write order; replay drains in order and only clears the
	// down flag once the buffer is empty, so a replayed write is never
	// overtaken by a younger direct one. One replay round trip carries
	// at most maxBatch ops.
	hmu      sync.Mutex
	hints    []Op
	hintCap  int
	replayed atomic.Uint64
	dropped  atomic.Uint64

	// spans, when non-nil, receives a "cluster/hint" annotation span
	// whenever a traced replica write defers to the handoff buffer, so
	// an assembled trace shows which copy was hinted rather than applied.
	spans *obs.SpanLog
	// events receives lifecycle events (nil-safe). failoverEvented and
	// dropEvented throttle the per-request emit sites to one event per
	// down episode — failovers and hint drops happen per op, and an
	// outage would otherwise flood the bounded ring with duplicates,
	// evicting the transitions that explain it. Both reset when the
	// member recovers.
	events          *obs.EventLog
	failoverEvented atomic.Bool
	dropEvented     atomic.Bool

	// addr is the member's advertised address on elastic clusters (empty
	// for a static cluster's members); it keys the member's view row.
	addr string
	// downSweeps counts consecutive probe sweeps the member has spent
	// down — the declare-dead clock (declareDeadAfter). Only the
	// prober goroutine touches it.
	downSweeps int
}

func newMemberState(m member, threshold, hintCap int) *memberState {
	return &memberState{member: m, threshold: int32(threshold), hintCap: hintCap}
}

// isDown reports the detector's current verdict.
func (s *memberState) isDown() bool { return s.down.Load() }

// noteFailure records one failed probe or transport-level op; threshold
// consecutive failures flip the member down.
func (s *memberState) noteFailure() {
	if s.consecFails.Add(1) >= s.threshold {
		s.down.Store(true)
		s.everDown.Store(true)
	}
}

// noteSuccess resets the consecutive-failure count. It does NOT clear
// the down flag — recovery goes through drainHints so the member only
// rejoins once its missed writes have been replayed.
func (s *memberState) noteSuccess() { s.consecFails.Store(0) }

// failing reports a member that has missed at least one recent probe or
// op without having crossed the down threshold yet — the view's Suspect
// verdict.
func (s *memberState) failing() bool { return s.consecFails.Load() > 0 }

// bufferHints queues missed replica writes for replay, in order,
// copying keys and values (ops may alias wire buffers that die with the
// request). A full buffer drops its oldest hints — the audit counter
// records that convergence now needs a rebalance or repair pass.
func (s *memberState) bufferHints(ops []Op) {
	s.hmu.Lock()
	dropping := false
	for _, op := range ops {
		h := Op{Kind: op.Kind, Key: append([]byte(nil), op.Key...)}
		if op.Value != nil {
			h.Value = append([]byte(nil), op.Value...)
		}
		if len(s.hints) >= s.hintCap {
			s.hints = s.hints[1:]
			s.dropped.Add(1)
			dropping = true
		}
		s.hints = append(s.hints, h)
	}
	s.hmu.Unlock()
	if dropping && !s.dropEvented.Swap(true) {
		s.events.Record(obs.Event{
			Kind: obs.EventHintDrop, Member: s.label(),
			Detail: fmt.Sprintf("hint buffer full at %d ops; oldest dropped — convergence needs rebalance", s.hintCap),
		})
	}
}

// label names the member for event timelines: its advertised address on
// elastic clusters, a synthetic id otherwise.
func (s *memberState) label() string {
	if s.addr != "" {
		return s.addr
	}
	return fmt.Sprintf("member-%d", s.memberID())
}

// hintsPending returns the current replay backlog.
func (s *memberState) hintsPending() int {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	return len(s.hints)
}

// drainHints replays the buffered writes onto the recovered member in
// order — through the same batched mirror call live replication uses,
// maxBatch ops per round trip — and, once the buffer is empty, clears
// the down flag in the same critical section: writes hinted while replay
// ran are drained by the next loop pass, so the member never serves as a
// replica target with undelivered hints ahead of it. A replay failure
// re-buffers the unapplied tail ahead of any younger hints and leaves
// the member down.
func (s *memberState) drainHints() error {
	var drained uint64
	for {
		s.hmu.Lock()
		if len(s.hints) == 0 {
			s.down.Store(false)
			s.consecFails.Store(0)
			s.hmu.Unlock()
			// The down episode is over: re-arm the per-episode event
			// throttles and log the replay that healed it.
			s.failoverEvented.Store(false)
			s.dropEvented.Store(false)
			if drained > 0 {
				s.events.Record(obs.Event{
					Kind: obs.EventHintReplay, Member: s.label(),
					Detail: fmt.Sprintf("replayed %d buffered writes", drained),
				})
			}
			return nil
		}
		backlog := s.hints
		s.hints = nil
		s.hmu.Unlock()
		for len(backlog) > 0 {
			chunk := backlog[:min(len(backlog), maxBatch)]
			if err := s.member.mirrorBatch(chunk); err != nil {
				s.hmu.Lock()
				s.hints = append(backlog, s.hints...)
				s.hmu.Unlock()
				return err
			}
			s.replayed.Add(uint64(len(chunk)))
			drained += uint64(len(chunk))
			backlog = backlog[len(chunk):]
		}
	}
}

// ---- member interception -------------------------------------------------
//
// The overrides below feed every transport outcome into the detector and
// redirect replica writes for down (or hint-backlogged) members into the
// handoff buffer. Methods not overridden pass straight through to the
// wrapped member.

// note classifies one op outcome for the detector.
func (s *memberState) note(err error) {
	if err == nil {
		s.noteSuccess()
		return
	}
	if isTransportErr(err) {
		s.noteFailure()
	}
}

func (s *memberState) ping() error {
	err := s.member.ping()
	if err != nil {
		s.noteFailure()
	} else {
		s.noteSuccess()
	}
	return err
}

// canGossip reports whether the wrapped member speaks the anti-entropy
// view exchange (remote peers dialed over a gossip-capable transport).
func (s *memberState) canGossip() bool {
	rm, ok := s.member.(*remoteMember)
	return ok && rm.gr != nil
}

// gossip runs one anti-entropy exchange against the member, feeding the
// outcome to the failure detector exactly like a ping.
func (s *memberState) gossip(view []byte) ([]byte, error) {
	rm, ok := s.member.(*remoteMember)
	if !ok || rm.gr == nil {
		return nil, errNotElastic
	}
	reply, err := rm.gr.Gossip(view)
	if err != nil {
		s.noteFailure()
	} else {
		s.noteSuccess()
	}
	return reply, err
}

// applyLocal lands a batch of writes on the member's own store without
// replica fan-out — chunks of migration copies, where the sender already
// owns the fan-out. epoch rides along so the receiver can reject a chunk
// planned under a view it does not hold. Outcomes feed the failure
// detector.
func (s *memberState) applyLocal(ops []Op, migration bool, epoch uint64) error {
	var err error
	switch m := s.member.(type) {
	case *Node:
		err = m.applyLocal(ops, migration)
	case *remoteMember:
		err = m.applyLocal(ops, migration, epoch)
	default:
		err = errNotElastic
	}
	s.note(err)
	return err
}

func (s *memberState) directGet(key []byte) ([]byte, bool, error) {
	v, ok, err := s.member.directGet(key)
	s.note(err)
	return v, ok, err
}

func (s *memberState) snapshotScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	entries, err := s.member.snapshotScan(dst, start, limit)
	s.note(err)
	return entries, err
}

// mirrorBatch is the replica leg of a replicated sub-batch. A down
// member — or one with an undrained hint backlog, which must stay
// strictly ahead of younger writes — buffers every op for replay; the
// check is made once for the batch. A live member whose mirror fails
// gets the same treatment whatever the failure was — a dead wire, but
// also a leg shed by the replica's admission control or refused by a
// closing server: the primary has already applied, so the writes are
// hinted rather than dropped and the R-copy invariant degrades to
// "eventually R copies" instead of silently shedding one. Only a
// transport failure counts against the member's health. The result is
// always nil: no copy is lost here.
func (s *memberState) mirrorBatch(ops []Op) error {
	s.hmu.Lock()
	deferToHints := s.down.Load() || len(s.hints) > 0
	s.hmu.Unlock()
	if !deferToHints {
		err := s.member.mirrorBatch(ops)
		if err == nil {
			return nil
		}
		if isTransportErr(err) {
			s.noteFailure()
		}
	}
	s.hintBatch(ops)
	return nil
}

// storeBatch lands ops on the member's own store now or not at all: the
// static mover's deliver step (rebalanceLocked). Nothing defers to
// hinted handoff — a copy parked in a hint buffer would be outrun by the
// drop pass, so a batch that did not land must fail the membership
// change instead.
func (s *memberState) storeBatch(ops []Op) error {
	err := s.member.mirrorBatch(ops)
	s.note(err)
	return err
}

// hintBatch buffers ops as hints and, when they are traced and a span
// log is attached, records a "cluster/hint" annotation around the
// buffering: the replica leg was deferred to hinted handoff, not
// applied. The span's single hinted-handoff phase carries the buffering
// cost; the replica hop that would normally appear under this parent is
// absent, which is exactly what the assembled trace should show.
func (s *memberState) hintBatch(ops []Op) {
	trace, parent := opsTrace(ops)
	if trace == 0 || s.spans == nil {
		s.bufferHints(ops)
		return
	}
	start := time.Now()
	s.bufferHints(ops)
	dur := time.Since(start)
	bytes := 0
	for i := range ops {
		bytes += len(ops[i].Key) + len(ops[i].Value)
	}
	s.spans.Record(obs.Span{
		Trace: trace, ID: obs.NewSpanID(), Parent: parent,
		Name: "cluster/hint", Start: start, Dur: dur,
		Bytes:  bytes,
		Err:    fmt.Sprintf("member %d unreachable, %d writes buffered for replay", s.memberID(), len(ops)),
		Phases: []obs.Phase{{Name: "hinted-handoff", Dur: dur}},
	})
}

// stats is the member's own snapshot plus the coordinator-side health
// state layered over it. Everything here is held by this process: no
// member's stats cost a round trip.
func (s *memberState) stats() NodeStats {
	ns := s.member.stats()
	ns.Down = s.isDown()
	ns.HintsPending = uint64(s.hintsPending())
	ns.HintsReplayed = s.replayed.Load()
	ns.HintsDropped = s.dropped.Load()
	return ns
}

// ---- prober ---------------------------------------------------------------

// Probe runs one synchronous health sweep: ping every member, feed the
// detector, and replay hinted writes onto members that answer while
// marked down (or that carry a backlog from a dropped mirror). The
// background prober calls this on its ticker; tests and chaos tools may
// call it directly for deterministic detection.
//
// On elastic clusters the sweep is also the gossip round: each probe is
// an anti-entropy view exchange instead of a bare ping (the exchange
// proves liveness just as well), and the sweep ends by publishing the
// detector's verdicts into the view and dialing newly learned members.
func (c *Cluster) Probe() {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return
	}
	elastic := c.elastic()
	members := make([]*memberState, 0, len(c.nodes))
	for _, m := range c.nodes {
		members = append(members, m)
	}
	c.mu.RUnlock()
	// Probe members concurrently: a dead member's exchange fails only
	// after its transport timeout, and paying that serially would stretch
	// every sweep to (dead members × timeout) — the declare-dead clock
	// counts sweeps, so detection latency would scale with the outage it
	// is trying to measure. Concurrent probes keep a sweep bounded by the
	// single slowest member.
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *memberState) {
			defer wg.Done()
			if elastic && m.canGossip() {
				reply, err := m.gossip(c.EncodedView())
				if err != nil {
					return
				}
				if len(reply) > 0 {
					if pv, derr := DecodeView(reply); derr == nil {
						c.adopt(pv)
					}
				}
			} else if m.ping() != nil {
				return
			}
			if m.isDown() || m.hintsPending() > 0 {
				// Replay failures leave the member down; the next sweep
				// retries.
				_ = m.drainHints()
			}
		}(m)
	}
	wg.Wait()
	if elastic {
		c.gossipRounds.Add(1)
		c.publishHealth(members)
		c.ensureMembers()
	}
}

// startProberLocked launches the background health prober once. Caller
// holds mu. Local nodes cannot fail, so the prober starts lazily with
// the first remote member; a negative ProbeInterval disables it (tests
// drive detection through Probe instead).
func (c *Cluster) startProberLocked() {
	if c.cfg.ProbeInterval < 0 || c.proberStop != nil {
		return
	}
	c.proberStop = make(chan struct{})
	go func(stop chan struct{}) {
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Probe()
			}
		}
	}(c.proberStop)
}

// MemberAddrs returns the advertised address of every member the
// current view still counts (everything but Left tombstones), sorted —
// the federation's discovery list. Down members are included on
// purpose: the federator attempts them and names them in its partial-
// failure report instead of silently narrowing the cluster.
func (c *Cluster) MemberAddrs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.view.Members))
	for _, m := range c.view.Members {
		if m.Addr == "" || m.Status == StatusLeft {
			continue
		}
		out = append(out, m.Addr)
	}
	sort.Strings(out)
	return out
}

// noteFailoverEvent logs one failover event per member per down
// episode (kind is "read" or "write"). Failovers are per-request, so
// the throttle keeps a sustained outage from flooding the event ring
// with one entry per op; the failover *counters* still count every op.
func (c *Cluster) noteFailoverEvent(kind string, m *memberState) {
	if c.events == nil || m == nil || m.failoverEvented.Swap(true) {
		return
	}
	c.events.Record(obs.Event{
		Kind: obs.EventFailover, Member: m.label(), Epoch: c.epoch.Load(),
		Detail: kind + " routed around down primary",
	})
}

// MemberDown reports whether the failure detector currently considers
// the member down. Unknown ids report false.
func (c *Cluster) MemberDown(id int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.nodes[id]
	return ok && m.isDown()
}

// DownMembers returns the ids the failure detector currently considers
// down, in ascending order.
func (c *Cluster) DownMembers() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, id := range c.ring.Members() {
		if m := c.nodes[id]; m == nil || m.isDown() {
			out = append(out, id)
		}
	}
	return out
}
