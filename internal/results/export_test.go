package results

// DictLog reports how attribute a's dictionary in s is held: the number of
// values logged since its full capture, and the identity of the log it
// views (equal identities share one capture).
func DictLog(s *Snapshot, a int) (logged int, log any) {
	d := s.dicts[a]
	return len(d.born) + len(d.died), d.log
}

// Rematerialize drops s's IND memo and every dictionary's materialized
// value set, so the next INDs call recomputes from the dictionary views.
// s must not be the predecessor of a later Build.
func Rematerialize(s *Snapshot) {
	s.mu.Lock()
	s.inds, s.indsSet = nil, false
	s.mu.Unlock()
	for a, d := range s.dicts {
		s.dicts[a] = &attrDict{gen: d.gen, count: d.count, log: d.log, born: d.born, died: d.died}
	}
}
