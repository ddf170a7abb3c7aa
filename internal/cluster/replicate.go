package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the replication pipeline both kinds of lead member run a
// replicated sub-batch through. Under the lead's write lock:
//
//  1. The whole sub-batch — reads and writes, in order — is applied on
//     the primary in one step: one RPC for a remote lead
//     (remoteMember.execute), one pass over the local engine with every
//     write run coalesced into a WriteBatch for a local one
//     (Node.execute). Each result the primary produced carries
//     OpResult.Applied.
//  2. The writes whose result says applied are grouped per replica
//     target in primary order and sent as one mirror batch per target
//     (mirrorApplied) — in parallel when there is more than one target.
//
// The lock is held from the primary apply to the last mirror ack, so two
// sub-batches led by one member never interleave and every copy sees
// same-key writes in the primary's order. A single-key Put or Delete is
// a sub-batch of one through the same code (Cluster.write).
//
// What mirrors is exactly what the primary reported applied. A TryApply
// the primary shed part of mirrors the applied part only. A transport
// error on the primary call leaves the outcome of the whole sub-batch
// unknown — no result came back — so nothing mirrors and the caller gets
// the error; copies the primary did apply before the response was lost
// stay unmirrored until a repair pass (DESIGN.md §9, known limits).

// mirrorLeg is the slice of one replicated sub-batch bound for one
// replica target.
type mirrorLeg struct {
	to  mirror
	ops []Op
}

// leg returns req's mirror batch for target to, opening it — on recycled
// capacity when the request has fanned out this wide before — on first
// use.
func (r *request) leg(to mirror) *mirrorLeg {
	for i := range r.legs {
		if r.legs[i].to == to {
			return &r.legs[i]
		}
	}
	if len(r.legs) < cap(r.legs) {
		r.legs = r.legs[:len(r.legs)+1]
	} else {
		r.legs = append(r.legs, mirrorLeg{})
	}
	l := &r.legs[len(r.legs)-1]
	l.to = to
	l.ops = l.ops[:0]
	return l
}

// mirrorApplied sends every write the primary reported applied to its
// replica targets, one batch per target. Caller holds the lead's write
// lock and has filled r.results.
func (r *request) mirrorApplied() {
	r.legs = r.legs[:0]
	for i, reps := range r.replicas {
		if !r.results[r.idx[i]].Applied {
			continue
		}
		for _, to := range reps {
			l := r.leg(to)
			l.ops = append(l.ops, r.ops[i])
		}
	}
	if len(r.legs) == 0 {
		return
	}
	// Targets beyond the first (R > 2) overlap their round trips.
	r.fan.Add(len(r.legs))
	for i := 1; i < len(r.legs); i++ {
		go r.sendLeg(&r.legs[i])
	}
	r.sendLeg(&r.legs[0])
	r.fan.Wait()
}

// sendLeg delivers one mirror batch. Planned targets are memberStates,
// which turn a failed leg into hinted handoff and report nil; an error
// can only come from a bare member, and then the copy is lost — the
// caller hears about it rather than holding a silently short replica set.
func (r *request) sendLeg(l *mirrorLeg) {
	if err := l.to.mirrorBatch(l.ops); err != nil && r.errs != nil {
		r.errs.set(fmt.Errorf("cluster: replica copy of %d writes lost: %w", len(l.ops), err))
	}
	r.fan.Done()
}

// writeSpan is the "cluster/write" span of one traced sub-batch: the hop
// between the caller and the primary apply (exec phase) plus the mirror
// fan-out (replicate phase). The zero value records nothing.
type writeSpan struct {
	log  *obs.SpanLog
	span obs.Span
	exec time.Duration
}

// beginWriteSpan opens the span when req holds a traced write and log is
// attached, and re-parents req's traced ops onto it in place — so the
// primary RPC, every mirror leg, and through their frames the spans the
// remote servers record, hang off this hop rather than its caller. The
// first traced write names the trace: the planner never mixes traces
// within one caller's batch.
func beginWriteSpan(log *obs.SpanLog, req *request) writeSpan {
	if log == nil {
		return writeSpan{}
	}
	first := -1
	for i := range req.ops {
		if req.ops[i].Trace != 0 && req.ops[i].Kind != OpGet {
			first = i
			break
		}
	}
	if first < 0 {
		return writeSpan{}
	}
	ws := writeSpan{log: log, span: obs.Span{
		Trace: req.ops[first].Trace, ID: obs.NewSpanID(), Parent: req.ops[first].Parent,
		Name: "cluster/write", Start: time.Now(),
	}}
	for i := range req.ops {
		op := &req.ops[i]
		if op.Trace != ws.span.Trace {
			continue
		}
		op.Parent = ws.span.ID
		if op.Kind != OpGet {
			ws.span.Bytes += len(op.Key) + len(op.Value)
		}
	}
	return ws
}

// execDone marks the end of the primary apply.
func (ws *writeSpan) execDone() {
	if ws.log != nil {
		ws.exec = time.Since(ws.span.Start)
	}
}

// end records the span; err is the primary apply's failure, if any.
func (ws *writeSpan) end(err error) {
	if ws.log == nil {
		return
	}
	ws.span.Dur = time.Since(ws.span.Start)
	ws.span.Phases = []obs.Phase{
		{Name: "exec", Dur: ws.exec},
		{Name: "replicate", Dur: ws.span.Dur - ws.exec},
	}
	if err != nil {
		ws.span.Err = err.Error()
	}
	ws.log.Record(ws.span)
}

// opsTrace returns the first nonzero trace id in ops and the parent
// span it descends from (both zero when the run is untraced).
func opsTrace(ops []Op) (trace, parent uint64) {
	for i := range ops {
		if ops[i].Trace != 0 {
			return ops[i].Trace, ops[i].Parent
		}
	}
	return 0, 0
}
