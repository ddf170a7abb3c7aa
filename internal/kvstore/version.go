package kvstore

// version is one immutable view of the store: the active memtable plus
// the run set. Writers build a new version and install it with a single
// atomic pointer swap (the in-memory manifest); readers pin a version
// with one load and traverse it without ever taking the store lock — a
// reader can overlap an arbitrary number of flushes and compactions and
// still sees a coherent run set, because the versions it pinned are
// never mutated, only superseded.
//
// runs holds flush and compaction output, oldest→newest, with
// overlapping key ranges.
type version struct {
	mem  *memtable
	runs []*sstable
}

func newVersion() *version {
	return &version{mem: newMemtable()}
}

// clone shallow-copies the version so a writer can edit the run set and
// install the result without disturbing pinned readers.
func (v *version) clone() *version {
	return &version{mem: v.mem, runs: append([]*sstable(nil), v.runs...)}
}
