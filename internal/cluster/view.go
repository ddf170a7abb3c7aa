package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file is the membership value layer: an epoch-versioned,
// immutable ClusterView that the coordinator swaps atomically (the same
// discipline the kvstore applies to its immutable versions). Everything
// mutable about membership — who is in the cluster, how healthy each
// member looks, how far migration has progressed — is expressed as a
// new view value; readers capture one pointer and route against a
// consistent snapshot with no locks on the hot path.
//
// Epoch rules:
//   - The epoch versions the OWNERSHIP map: it changes exactly when the
//     set of ring members (rows whose status is not Left) changes.
//     Joins, leaves and crash declarations bump it; health flaps and
//     migration progress do not.
//   - Per-member rows version independently through Incarnation
//     (SWIM-style): the higher incarnation wins a merge, and a tie
//     resolves to the worse status so a death notice is never lost to
//     reordering. Only the member itself refutes a bad verdict, by
//     republishing its row at a higher incarnation.
//   - Settled is the member's own high-water mark: "my outbound
//     migration for every epoch <= Settled is complete". It merges by
//     max independently of incarnation. When every live row's Settled
//     reaches the view epoch the ownership change has converged: every
//     copy is where the new ring says it lives.

// MemberStatus is one member's health verdict inside a ClusterView.
// Order matters: higher values are strictly worse, and an incarnation
// tie between two verdicts resolves to the larger one.
type MemberStatus uint8

const (
	// StatusAlive means the member is serving.
	StatusAlive MemberStatus = iota
	// StatusSuspect means probes have started failing but the detector
	// has not yet reached its threshold. Suspect members stay on the
	// ring; routing treats them like alive ones.
	StatusSuspect
	// StatusDown means the failure detector's threshold was reached.
	// Down members stay on the ring (ownership is unchanged; routing
	// fails over around them) until a peer declares them Left.
	StatusDown
	// StatusLeaving means the member announced a graceful departure: it
	// is off the ring (the epoch bumped, successors are taking over its
	// ranges) but still counted in the settle barrier, because it holds
	// data it must finish pushing before anyone drops relocated copies.
	// The member itself transitions Leaving -> Left once its outbound
	// migration settles; a Leaving member that crashes is declared Left
	// by the lowest-id live peer like any dead member.
	StatusLeaving
	// StatusLeft means the member has departed — gracefully via Leave,
	// or declared dead by the lowest-id live member after a sustained
	// outage. Left rows stay in the view as tombstones (so the verdict
	// survives merges) but are off the ring and out of the barrier.
	StatusLeft
)

// onRing reports whether a row with this status owns ring arcs.
func (s MemberStatus) onRing() bool { return s <= StatusDown }

func (s MemberStatus) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDown:
		return "down"
	case StatusLeaving:
		return "leaving"
	case StatusLeft:
		return "left"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MemberInfo is one member's row in a ClusterView.
type MemberInfo struct {
	// ID is the ring id. Networked members derive it from their
	// advertised address (MemberIDForAddr), so every process computes
	// the identical ring from the same view without coordination.
	ID int
	// Addr is the member's advertised transport address; empty for the
	// members of a static cluster, local or remote.
	Addr string
	// Status is the current health verdict; see MemberStatus.
	Status MemberStatus
	// Incarnation versions this row; see the epoch rules above.
	Incarnation uint64
	// Settled is the highest epoch this member has fully migrated for.
	Settled uint64
}

// ClusterView is one immutable membership snapshot. Fields are exported
// for inspection but must never be mutated — derive a new view instead.
type ClusterView struct {
	Epoch  uint64
	R      int // replication factor agreed cluster-wide
	VNodes int // virtual nodes per member, agreed cluster-wide
	// Members is sorted by ID and includes Left tombstones.
	Members []MemberInfo

	ring    *Ring
	digest  uint64
	settled bool
}

// MemberIDForAddr derives the deterministic ring id for a networked
// member from its advertised address. Every process that learns the
// address computes the same id, so rings built from the same view are
// identical everywhere without an id-assignment authority.
func MemberIDForAddr(addr string) int {
	return int(hashKey([]byte(addr)) >> 1) // keep it positive
}

// newView builds a finalized view: rows sorted by id, the ring derived
// over non-Left members, digest and settledness precomputed. It takes
// ownership of members.
func newView(epoch uint64, r, vnodes int, members []MemberInfo) *ClusterView {
	if r <= 0 {
		r = 1
	}
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	v := &ClusterView{Epoch: epoch, R: r, VNodes: vnodes, Members: members}
	v.ring = NewRing(vnodes)
	v.settled = true
	for _, m := range members {
		if m.Status.onRing() {
			v.ring.Add(m.ID)
		}
		if m.Status != StatusDown && m.Status != StatusLeft && m.Settled < epoch {
			// Alive, Suspect and Leaving rows all gate convergence: each
			// may hold copies it must finish pushing. Down members are
			// excluded — they cannot migrate, and their departure is what
			// the Left declaration exists to resolve.
			v.settled = false
		}
	}
	v.digest = v.computeDigest()
	return v
}

// Digest is a cheap fingerprint of the entire view — epoch, parameters
// and every row. Two views with equal digests are treated as identical
// by the anti-entropy exchange.
func (v *ClusterView) Digest() uint64 { return v.digest }

// AllSettled reports whether every live member's Settled has reached
// the view epoch — the convergence condition after an ownership change.
func (v *ClusterView) AllSettled() bool { return v.settled }

// Ring returns the ownership ring derived from the view. Callers must
// treat it as read-only.
func (v *ClusterView) Ring() *Ring { return v.ring }

// ringUnion returns the members on v's ring followed by those only on
// base's: everyone who may hold a copy of some key while v's migration
// from base is in flight.
func ringUnion(v, base *ClusterView) []int {
	ids := v.ring.Members()
	for _, id := range base.ring.Members() {
		if !v.ring.Contains(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Member returns the row for id.
func (v *ClusterView) Member(id int) (MemberInfo, bool) {
	i := sort.Search(len(v.Members), func(i int) bool { return v.Members[i].ID >= id })
	if i < len(v.Members) && v.Members[i].ID == id {
		return v.Members[i], true
	}
	return MemberInfo{}, false
}

// withRow derives a new view with m inserted or replacing its row. When
// the change alters ring membership (a join, a leave, a declaration or
// a resurrection) the epoch advances; otherwise it is a row-level
// update (health verdicts, settle watermarks) at the same epoch.
func (v *ClusterView) withRow(m MemberInfo) *ClusterView {
	rows := make([]MemberInfo, 0, len(v.Members)+1)
	replaced := false
	ringChanged := m.Status.onRing() // a pure insert adds a ring member
	for _, r := range v.Members {
		if r.ID == m.ID {
			ringChanged = r.Status.onRing() != m.Status.onRing()
			rows = append(rows, m)
			replaced = true
			continue
		}
		rows = append(rows, r)
	}
	if !replaced {
		rows = append(rows, m)
	}
	epoch := v.Epoch
	if ringChanged {
		epoch++
	}
	return newView(epoch, v.R, v.VNodes, rows)
}

func (v *ClusterView) computeDigest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(v.Epoch)
	mix(uint64(v.R)<<32 | uint64(v.VNodes))
	for _, m := range v.Members {
		mix(uint64(int64(m.ID)))
		mix(m.Incarnation)
		mix(m.Settled)
		mix(uint64(m.Status))
		mix(hashKey([]byte(m.Addr)))
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sameRingMembers reports whether two sorted row sets imply the same
// ring membership (the same on-ring ids).
func sameRingMembers(a, b []MemberInfo) bool {
	i, j := 0, 0
	for {
		for i < len(a) && !a[i].Status.onRing() {
			i++
		}
		for j < len(b) && !b[j].Status.onRing() {
			j++
		}
		if i >= len(a) || j >= len(b) {
			return i >= len(a) && j >= len(b)
		}
		if a[i].ID != b[j].ID {
			return false
		}
		i++
		j++
	}
}

// MergeViews merges two membership views into the one both sides
// converge on. The merge is deterministic and symmetric: any set of
// nodes pairwise exchanging views reaches the same digest regardless of
// order, which is what makes the anti-entropy loop an agreement
// protocol rather than a broadcast.
//
// Rules: rows merge per member by incarnation (higher wins; an
// incarnation tie resolves to the worse status; Settled merges by max
// independently). The higher-epoch input contributes the cluster
// parameters, with the digest as a deterministic tie-break. The merged
// epoch is the max of the two — advanced by one when the merge itself
// changed ring membership relative to the winner, which is how two view
// islands that diverged at the same epoch (a healed partition) agree on
// a fresh, strictly larger epoch for the united ring.
func MergeViews(a, b *ClusterView) *ClusterView {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Digest() == b.Digest() {
		return a
	}
	winner := a
	if b.Epoch > a.Epoch || (b.Epoch == a.Epoch && b.Digest() > a.Digest()) {
		winner = b
	}
	rows := make([]MemberInfo, 0, len(a.Members)+len(b.Members))
	i, j := 0, 0
	for i < len(a.Members) || j < len(b.Members) {
		switch {
		case j >= len(b.Members) || (i < len(a.Members) && a.Members[i].ID < b.Members[j].ID):
			rows = append(rows, a.Members[i])
			i++
		case i >= len(a.Members) || b.Members[j].ID < a.Members[i].ID:
			rows = append(rows, b.Members[j])
			j++
		default:
			rows = append(rows, mergeRow(a.Members[i], b.Members[j]))
			i++
			j++
		}
	}
	epoch := winner.Epoch
	if !sameRingMembers(rows, winner.Members) {
		epoch++
	}
	return newView(epoch, winner.R, winner.VNodes, rows)
}

// mergeRow resolves one member's row between two views.
func mergeRow(x, y MemberInfo) MemberInfo {
	out := x
	if y.Incarnation > x.Incarnation || (y.Incarnation == x.Incarnation && y.Status > x.Status) {
		out = y
	}
	if x.Settled > out.Settled {
		out.Settled = x.Settled
	}
	if y.Settled > out.Settled {
		out.Settled = y.Settled
	}
	return out
}

// ---- wire form ------------------------------------------------------------
//
// The view codec lives here, not in the transport: OpGossip frames carry
// the encoded view as an opaque payload, so the wire layer needs no
// knowledge of membership and alternative transports inherit the format.

const viewWireVersion = 1

// Encode serializes the view.
func (v *ClusterView) Encode() []byte {
	n := 1 + 8 + 2 + 2 + 2
	for _, m := range v.Members {
		n += 8 + 8 + 8 + 1 + 2 + len(m.Addr)
	}
	b := make([]byte, 0, n)
	b = append(b, viewWireVersion)
	b = binary.BigEndian.AppendUint64(b, v.Epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(v.R))
	b = binary.BigEndian.AppendUint16(b, uint16(v.VNodes))
	b = binary.BigEndian.AppendUint16(b, uint16(len(v.Members)))
	for _, m := range v.Members {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(m.ID)))
		b = binary.BigEndian.AppendUint64(b, m.Incarnation)
		b = binary.BigEndian.AppendUint64(b, m.Settled)
		b = append(b, byte(m.Status))
		b = binary.BigEndian.AppendUint16(b, uint16(len(m.Addr)))
		b = append(b, m.Addr...)
	}
	return b
}

// DecodeView parses an encoded view.
func DecodeView(b []byte) (*ClusterView, error) {
	if len(b) < 15 {
		return nil, fmt.Errorf("cluster: view truncated (%d bytes)", len(b))
	}
	if b[0] != viewWireVersion {
		return nil, fmt.Errorf("cluster: unknown view version %d", b[0])
	}
	epoch := binary.BigEndian.Uint64(b[1:])
	r := int(binary.BigEndian.Uint16(b[9:]))
	vnodes := int(binary.BigEndian.Uint16(b[11:]))
	count := int(binary.BigEndian.Uint16(b[13:]))
	b = b[15:]
	rows := make([]MemberInfo, 0, count)
	for k := 0; k < count; k++ {
		if len(b) < 27 {
			return nil, fmt.Errorf("cluster: view row %d truncated", k)
		}
		m := MemberInfo{
			ID:          int(int64(binary.BigEndian.Uint64(b))),
			Incarnation: binary.BigEndian.Uint64(b[8:]),
			Settled:     binary.BigEndian.Uint64(b[16:]),
			Status:      MemberStatus(b[24]),
		}
		alen := int(binary.BigEndian.Uint16(b[25:]))
		if len(b) < 27+alen {
			return nil, fmt.Errorf("cluster: view row %d address truncated", k)
		}
		m.Addr = string(b[27 : 27+alen])
		b = b[27+alen:]
		rows = append(rows, m)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after view", len(b))
	}
	return newView(epoch, r, vnodes, rows), nil
}
