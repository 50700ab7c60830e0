package pli

import (
	"errors"
	"fmt"
)

// errStagedOpen rejects exclusive-access mutators while a staged batch is
// open: between StageBatch and Finish the only legal mutations are RunAttr
// calls, one per attribute.
var errStagedOpen = errors.New("pli: staged batch open (Finish not called)")

// stagedBatch is the open staged batch: the normal-form change lists that
// every RunAttr call reads. The slices are the caller's; they must not be
// mutated until Finish.
type stagedBatch struct {
	deletes []int64
	inserts []BatchInsert
	from    int64 // NextID before the batch: the new-cluster list stamp
}

// StageBatch opens a staged batch application: the decomposed, overlappable
// form of ApplyBatch used by the pipelined engine (DESIGN.md §13).
//
//	StageBatch(deletes, inserts)   — validate, flip liveness, stage (serial)
//	RunAttr(a) for every attribute — per-shard maintenance (parallel)
//	Finish()                       — free pages, advance the id horizon
//
// StageBatch performs all of ApplyBatch's validation up front (on error the
// store is unchanged and no batch is staged) and then flips liveness
// serially: deletes are marked dead (their pages and cluster ids stay
// readable for the compactions), inserts are marked live with their arena
// pages allocated, and NumRecords is final. After StageBatch returns,
// RunAttr(a) may be called concurrently for distinct attributes; each call
// owns shard a and arena column a exclusively, so the shards need no locks.
// Readers of attribute a must order themselves after RunAttr(a) through an
// external happens-before edge (the engine uses sched.Session.MarkReady);
// whole-store reads need every attribute maintained. The deletes and
// inserts slices are retained and read by RunAttr until Finish; the caller
// must not mutate them.
//
// Until Finish closes the staging window, all other mutators and
// CheckConsistency report the store as staged-open.
func (s *Store) StageBatch(deletes []int64, inserts []BatchInsert) error {
	if s.staged != nil {
		return errStagedOpen
	}
	// Validate before mutating anything.
	if s.batchSeen == nil {
		s.batchSeen = make(map[int64]struct{}, len(deletes))
	}
	for _, id := range deletes {
		if !s.alive(id) {
			clear(s.batchSeen)
			return fmt.Errorf("pli: record %d not found", id)
		}
		if _, dup := s.batchSeen[id]; dup {
			clear(s.batchSeen)
			return fmt.Errorf("pli: record %d deleted twice in batch", id)
		}
		s.batchSeen[id] = struct{}{}
	}
	clear(s.batchSeen)
	prev := s.nextID - 1
	for i, ins := range inserts {
		if ins.ID <= prev {
			return fmt.Errorf("pli: batch insert %d id %d not ascending (next %d)", i, ins.ID, prev+1)
		}
		if len(ins.Values) != s.numAttrs {
			return fmt.Errorf("pli: batch insert %d has %d values, schema has %d attributes",
				i, len(ins.Values), s.numAttrs)
		}
		prev = ins.ID
	}

	// Flip liveness serially — mark the deletes dead (their pages and
	// cluster ids stay readable for the compaction in RunAttr) and the
	// inserts live, allocating their arena pages. RunAttr workers only read
	// the bitmaps.
	for _, id := range deletes {
		s.clearLive(id)
	}
	for _, ins := range inserts {
		s.setLive(ins.ID)
	}
	s.staged = &stagedBatch{deletes: deletes, inserts: inserts, from: s.nextID}
	return nil
}

// RunAttr applies the staged batch to attribute a's shard: compaction of
// the touched clusters, then appends for the inserts (see applyAttr). Calls
// for distinct attributes may run concurrently; each writes only shard a
// and the records' column a. Misuse — no staged batch, attribute out of
// range, or a second call for the same attribute in one staging window —
// is a scheduling bug and panics (the engine's task runner converts panics
// into poisoning, the same contract as a panic inside the maintenance
// itself).
func (s *Store) RunAttr(a int) {
	st := s.staged
	if st == nil {
		panic("pli: RunAttr without a staged batch")
	}
	if a < 0 || a >= s.numAttrs {
		panic(fmt.Sprintf("pli: RunAttr attribute %d out of range (%d attrs)", a, s.numAttrs))
	}
	if got := s.shards[a].epoch.Load(); got != s.batchEpoch {
		panic(fmt.Sprintf("pli: RunAttr(%d) called twice in one staged batch (epoch %d, batch %d)",
			a, got, s.batchEpoch))
	}
	s.applyAttr(a, st)
	// The increment is the shard-local "maintained" marker; the
	// happens-before edge readers need is published by the caller.
	s.shards[a].epoch.Add(1)
}

// Finish closes the staging window: frees arena pages whose last record
// died, advances the id horizon past the batch's inserts, and re-enables
// the ordinary mutators. It errors — leaving the window open, since the
// store is not in a consistent state — if any attribute was not maintained
// by a RunAttr call.
func (s *Store) Finish() error {
	st := s.staged
	if st == nil {
		return errors.New("pli: Finish without a staged batch")
	}
	for a := range s.shards {
		if got := s.shards[a].epoch.Load(); got != s.batchEpoch+1 {
			return fmt.Errorf("pli: Finish with attribute %d not maintained (epoch %d, want %d)",
				a, got, s.batchEpoch+1)
		}
	}
	for _, id := range st.deletes {
		s.freePageIfEmpty(id)
	}
	if n := len(st.inserts); n > 0 {
		s.nextID = st.inserts[n-1].ID + 1
	}
	s.batchEpoch++
	s.staged = nil
	return nil
}
