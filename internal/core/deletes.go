package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"

	"dynfd/internal/lattice"
)

// classifyDelete decides one negative-cover candidate's fate for the
// delete sweep. The caller must have awaited the candidate's Lhs∪{Rhs}
// shards: the witness repair inside needsValidation reads their cluster
// ids.
func (e *Engine) classifyDelete(nonFd fd.FD, touched attrset.Set) scanKind {
	if !e.nonFds.Contains(nonFd.Lhs, nonFd.Rhs) {
		return scanStale // removed by a depth-first search in this level
	}
	if !nonFd.Lhs.With(nonFd.Rhs).Intersects(touched) {
		// No involved column changed; the non-FD's violations over
		// these columns survive in the updated tuple versions (§8 ext. 3).
		return scanSkipped
	}
	if !e.needsValidation(nonFd) {
		return scanSkipped
	}
	return scanEligible
}

// applyDeleteOutcome folds one non-FD's scan outcome into stats and
// witness refreshes; reports whether the non-FD turned out valid (the
// caller collects those for promotion after the whole level merged).
func (e *Engine) applyDeleteOutcome(nonFd fd.FD, o scanOutcome) bool {
	switch o.kind {
	case scanSkipped:
		e.stats.SkippedValidations++
	case scanValid:
		e.stats.Validations++
		return true
	case scanInvalid:
		e.stats.Validations++
		if e.cfg.ValidationPruning {
			// Attach the fresh witness so future batches can skip
			// this non-FD again.
			e.nonFds.SetViolation(nonFd.Lhs, nonFd.Rhs,
				lattice.Violation{A: o.witness.A, B: o.witness.B})
		}
	}
	return false
}

// needsValidation implements the validation pruning of §5.2: a non-FD can
// be skipped when its annotated violating record pair still exists, since
// the violation then still disproves it. Non-FDs without an annotation —
// freshly generalized candidates and the whole cover on the very first
// batch — are always validated. With delta pruning, a witness pair that
// died by update is first resolved onto its successor versions and
// repaired in place if it still violates (delta.go).
func (e *Engine) needsValidation(nonFd fd.FD) bool {
	if !e.cfg.ValidationPruning {
		return true
	}
	v, ok := e.nonFds.Violation(nonFd.Lhs, nonFd.Rhs)
	if !ok {
		return true
	}
	_, aliveA := e.store.Record(v.A)
	_, aliveB := e.store.Record(v.B)
	if aliveA && aliveB {
		return false
	}
	if e.cfg.DeltaPruning && e.repairWitness(nonFd, v, aliveA, aliveB) {
		return false
	}
	return true
}

// promoteNonFD moves a de-facto-valid non-FD into the positive cover and
// replaces it in the negative cover by its maximal generalizations
// (Algorithm 4 lines 6-12). Dropping an attribute outside the Lhs would
// keep the Lhs a superset of a valid FD, so only direct generalizations
// within the Lhs are candidates.
func (e *Engine) promoteNonFD(f fd.FD) {
	e.nonFds.Remove(f.Lhs, f.Rhs)
	if !e.fds.ContainsGeneralization(f.Lhs, f.Rhs) {
		e.fds.RemoveSpecializations(f.Lhs, f.Rhs)
		e.fds.Add(f.Lhs, f.Rhs)
	}
	// Note: candidates that are in fact valid (e.g. implied by an FD the
	// depth-first search promoted early) are added anyway; the descending
	// sweep validates and promotes them on the next level, which keeps the
	// generalization chains below them intact.
	f.Lhs.ForEach(func(r int) bool {
		gen := f.Lhs.Without(r)
		if !e.nonFds.ContainsSpecialization(gen, f.Rhs) {
			e.nonFds.Add(gen, f.Rhs)
		}
		return true
	})
}
