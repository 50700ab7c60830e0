package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/validate"
)

// scanKind classifies one candidate of a lattice level before its merge.
// Both sweeps (processInserts, processDeletes in pipeline.go) classify on
// the coordinator with classifyInsert/classifyDelete and fold the outcomes
// into the covers, in candidate order, with applyInsertOutcome/
// applyDeleteOutcome.
type scanKind uint8

const (
	// scanStale: the candidate is no longer a cover member; no work, no
	// stats.
	scanStale scanKind = iota
	// scanSkipped: a pruning rule discharged the candidate without
	// validating (counted as a skipped validation).
	scanSkipped
	// scanEligible: the candidate must be validated against the store
	// (transient; replaced by scanValid/scanInvalid after validation).
	scanEligible
	// scanValid: validation confirmed the candidate holds.
	scanValid
	// scanInvalid: validation found a violating record pair.
	scanInvalid
	// scanDeltaPruned: the agree-mask delta pruning discharged the
	// candidate without validating (counted as a skipped validation, and
	// separately as a delta prune).
	scanDeltaPruned
)

// scanOutcome is the per-candidate result of a level's classification
// and validation. For scanInvalid, witness holds the violating record
// pair.
type scanOutcome struct {
	kind    scanKind
	witness validate.Witness
}

// classifyInsert decides one positive-cover candidate's fate for the
// insert sweep without mutating engine state. The speculative submissions
// use it too, so they prune exactly like the merge.
func (e *Engine) classifyInsert(cand fd.FD, touched attrset.Set) scanKind {
	if !e.fds.Contains(cand.Lhs, cand.Rhs) {
		return scanStale // removed by an earlier specialization or search
	}
	if e.keySet.Intersects(cand.Lhs) {
		// A declared key in the Lhs makes every Lhs group a single
		// record; the FD can never be invalidated (§8 ext. 2).
		return scanSkipped
	}
	if !cand.Lhs.With(cand.Rhs).Intersects(touched) {
		// No involved column changed, so the FD's validity cannot
		// have changed either (§8 ext. 3).
		return scanSkipped
	}
	if e.deltaValid && !e.deltaMayViolate(cand.Lhs) {
		// No new record agrees with anything on the whole Lhs, so the
		// batch cannot have created a violating pair (delta.go).
		return scanDeltaPruned
	}
	return scanEligible
}

// applyInsertOutcome folds one candidate's scan outcome into stats and
// covers (Algorithm 2 lines 6-15): an invalidated FD is removed, replaced
// by its minimal specializations, and recorded as a maximal non-FD with
// its witness. Reports whether the candidate was invalid, and whether its
// specializations were actually induced (false when a concurrent search
// already removed it).
func (e *Engine) applyInsertOutcome(cand fd.FD, o scanOutcome) (invalid, specialized bool) {
	switch o.kind {
	case scanSkipped:
		e.stats.SkippedValidations++
	case scanDeltaPruned:
		e.stats.SkippedValidations++
		e.stats.DeltaPruned++
	case scanValid:
		e.stats.Validations++
	case scanInvalid:
		e.stats.Validations++
		if !e.fds.Contains(cand.Lhs, cand.Rhs) {
			return true, false
		}
		induct.Specialize(e.fds, cand.Lhs, cand.Rhs, e.numAttrs)
		e.addNonFD(cand.Lhs, cand.Rhs, lattice.Violation{A: o.witness.A, B: o.witness.B})
		return true, true
	}
	return false, false
}

// addNonFD records a newly discovered non-FD in the negative cover with
// its violating record pair (paper §4.1: remove all generalizations, then
// add; §5.2: attach the surrogate violation).
func (e *Engine) addNonFD(lhs attrset.Set, rhs int, v lattice.Violation) {
	if induct.AddMaximalNonFD(e.nonFds, lhs, rhs) {
		e.nonFds.SetViolation(lhs, rhs, v)
	}
}
