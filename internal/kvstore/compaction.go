package kvstore

// maybeCompactLocked is size-tiered compaction: when the run count
// exceeds MaxRuns it rewrites the entire run set into a single run —
// cheap bookkeeping, bursty full rewrites, one flat run set. Caller
// holds writeMu; the result installs as a fresh version, so pinned
// readers keep serving from the pre-compaction run set.
func (s *Store) maybeCompactLocked() {
	v := s.cur.Load()
	if len(v.runs) <= s.opts.MaxRuns {
		return
	}
	rows := make([][]row, len(v.runs))
	for i, t := range v.runs {
		rows[i] = t.rows
	}
	merged := mergeRows(rows)
	s.cpu.Code(s.scanCode, s.codeOff(s.scanCode), 768)
	// Compaction I/O: every input run is read, block-compressed (a third
	// of the logical bytes, as on flush), and the output written.
	for _, t := range v.runs {
		s.cpu.LoadR(t.region, 0, t.bytes/3)
	}
	var out []*sstable
	if len(merged) > 0 {
		t := buildSSTable(merged, s.opts.BloomBitsPerKey, s.cpu)
		s.cpu.StoreR(t.region, 0, t.bytes/3)
		out = []*sstable{t}
	}
	s.cpu.IntOps(4 * len(merged))
	s.cpu.Branches(2 * len(merged))
	s.cur.Store(&version{mem: v.mem, runs: out})
	s.ct.compactions.Add(1)
}
