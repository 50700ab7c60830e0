package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dynfd/internal/attrset"
	"dynfd/internal/fanout"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/sched"
	"dynfd/internal/validate"
)

// Pipelined batch execution on the work-stealing scheduler (DESIGN.md §13).
//
// A batch does not run as strictly serialized stages (store maintenance,
// then delete sweep, then insert sweep, each level a scan/merge barrier).
// Instead one sched.Session spans the whole batch:
//
//   - Per-attribute Pli maintenance is submitted as tasks that publish
//     their attribute's readiness bit when done. Validations only ever read
//     the shards of their candidate's Lhs∪{Rhs}, so the delete sweep starts
//     classifying and validating as soon as those shards are maintained —
//     maintenance of the remaining attributes overlaps validation.
//   - A level's eligible candidates are bundled into stealable chunks
//     (chunkSize) spread across the worker deques; the coordinator resolves
//     them in candidate order during the merge, claiming directly or
//     helping with other chunks while it waits, so the merge order never
//     depends on the worker count.
//   - While a level merges, the next level is validated speculatively: its
//     pre-existing cover members are previewed before the merge, and fresh
//     candidates created by the merge itself (specializations, promoted
//     generalizations) are submitted as they appear. Speculative outcomes
//     are pure functions of (frozen shard state, Lhs, Rhs, pruning bound),
//     so reusing them cannot change results; entries whose candidate turns
//     stale are simply discarded, and leftovers die with the session.
//
// With no background workers (Workers <= 1) the same session runs inline
// on the caller's goroutine: maintenance completes before the sweeps, and
// each eligible candidate is validated directly during classification,
// with no chunks and no speculation.
//
// Worker-count equivalence: classification runs on the coordinator in
// candidate order, and the merge consumes outcomes in candidate order, so
// covers after every batch are identical for every worker count (asserted
// by the equivalence property tests and the golden covers).

// resolveWorkers maps the Config.Workers knob to the scheduler's total
// slot count: n >= 1 gives n slots, 0 gives the inline single slot, and
// n < 0 one slot per available CPU.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n == 0 {
		return 1
	}
	return n
}

// maintTask maintains one Pli shard and publishes its readiness bit, which
// un-gates every validation chunk waiting on the attribute.
type maintTask struct {
	sched.Handle
	store *pli.Store
	ses   *sched.Session
	attr  int
}

func (t *maintTask) Deps() attrset.Set { return attrset.Set{} }

func (t *maintTask) Run(int) {
	t.store.RunAttr(t.attr)
	t.ses.MarkReady(attrset.Of(t.attr))
}

// valChunk is one stealable bundle of candidate validations. Run validates
// every request with the worker slot's scratch; outcomes land in per-
// request slots, read by the coordinator only after Await(chunk) — the
// task-done edge orders the writes before the reads.
type valChunk struct {
	sched.Handle
	deps    attrset.Set
	store   *pli.Store
	scratch *validate.Scratches
	reqs    []validate.Request
	outs    []validate.Outcome
}

func (c *valChunk) Deps() attrset.Set { return c.deps }

func (c *valChunk) Run(worker int) {
	sc := c.scratch.At(worker)
	for i, r := range c.reqs {
		c.outs[i] = validate.One(sc, c.store, r)
	}
}

// chunkSlot locates one candidate's outcome inside a submitted chunk.
type chunkSlot struct {
	ch  *valChunk
	idx int
}

// chunkBuilder accumulates eligible candidates into chunks and submits each
// chunk as it fills; flush submits the partial tail.
type chunkBuilder struct {
	e     *Engine
	ses   *sched.Session
	size  int
	prune int64
	cur   *valChunk
}

func (b *chunkBuilder) add(cand fd.FD, deps attrset.Set) chunkSlot {
	if b.cur == nil {
		b.cur = &valChunk{store: b.e.store, scratch: b.e.scratch}
	}
	b.cur.reqs = append(b.cur.reqs, validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs, MinNewID: b.prune})
	b.cur.outs = append(b.cur.outs, validate.Outcome{})
	b.cur.deps = b.cur.deps.Union(deps)
	sl := chunkSlot{ch: b.cur, idx: len(b.cur.reqs) - 1}
	if len(b.cur.reqs) >= b.size {
		b.flush()
	}
	return sl
}

func (b *chunkBuilder) flush() {
	if b.cur == nil {
		return
	}
	b.ses.Submit(b.cur)
	b.cur = nil
}

// chunkSize picks the stealable chunk granularity for a level of n
// candidates: about four chunks per worker so stealing has slack,
// clamped to [1, 32].
func (e *Engine) chunkSize(n int) int {
	c := n / (4 * e.pool.Workers())
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return c
}

// outcomeBuf returns the engine's reusable per-level outcome buffer.
func (e *Engine) outcomeBuf(n int) []scanOutcome {
	if cap(e.scanOutcomes) < n {
		e.scanOutcomes = make([]scanOutcome, n)
	}
	return e.scanOutcomes[:n]
}

// chunkSlots returns the zeroed per-level candidate → chunk slot map.
func (e *Engine) chunkSlots(n int) []chunkSlot {
	if cap(e.slotBuf) < n {
		e.slotBuf = make([]chunkSlot, n)
	}
	s := e.slotBuf[:n]
	clear(s)
	return s
}

// foldOutcome turns one validation result into a merged scan outcome.
func foldOutcome(o *scanOutcome, r validate.Outcome) {
	if r.Valid {
		o.kind = scanValid
	} else {
		o.kind = scanInvalid
		o.witness = r.Witness
	}
}

// resolveOutcome awaits the chunk holding the candidate's validation and
// folds its result into the scan outcome.
func (e *Engine) resolveOutcome(ses *sched.Session, o *scanOutcome, sl chunkSlot) error {
	if err := ses.Await(sl.ch); err != nil {
		return err
	}
	foldOutcome(o, sl.ch.outs[sl.idx])
	return nil
}

// validateInline runs one validation directly on the coordinator — the
// fast path when the pool has no background workers (Workers <= 1), where
// chunking and deque traffic would be pure overhead. Panic containment
// matches the scheduler's task capture, so a panicking validator still
// poisons the engine as a *fanout.PanicError instead of crashing the
// process.
func (e *Engine) validateInline(r validate.Request) (o validate.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &fanout.PanicError{Worker: 0, Value: p, Stack: debug.Stack()}
		}
	}()
	return validate.One(e.scratch.At(0), e.store, r), nil
}

// applyPipelined runs steps 1-3 of ApplyBatch on the scheduler: stage the
// batch, overlap per-attribute maintenance with the two sweeps, and seal
// the store. Called with the planner's outputs; on return either the batch
// is fully applied or the engine is poisoned (except for StageBatch
// validation failures, which leave the store and engine untouched).
func (e *Engine) applyPipelined(structStart time.Time, minNewID, nextID int64, deletes int, ids []int64, ins []pli.BatchInsert, touched attrset.Set) error {
	if err := e.store.StageBatch(e.planDeletes, ins); err != nil {
		return fmt.Errorf("core: applying batch: %w", err)
	}
	e.scratch.Ensure(e.pool.Workers())
	ses := e.pool.Begin()
	ended := false
	// A coordinator panic unwinds through here before ApplyBatch's recover
	// defer captures it; joining the workers first keeps the parallelism
	// from escaping the call even on the failure path.
	defer func() {
		if !ended {
			_ = ses.End()
		}
	}()
	full := attrset.Full(e.numAttrs)
	for a := 0; a < e.numAttrs; a++ {
		ses.Submit(&maintTask{store: e.store, ses: ses, attr: a})
	}
	if e.pool.Background() == 0 {
		// Nothing could overlap the maintenance, so finish it here and
		// keep StructureTime the Figure 1 step-1 share.
		if err := ses.AwaitReady(full); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: applying batch: %w", err)
		}
	}
	e.stats.StructureTime += time.Since(structStart)

	if deletes > 0 {
		start := time.Now()
		if err := e.processDeletes(ses, touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: delete phase: %w", err)
		}
		e.stats.DeletePhaseTime += time.Since(start)
	}
	if len(ids) > 0 {
		start := time.Now()
		if err := e.processInserts(ses, minNewID, ids, touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: insert phase: %w", err)
		}
		e.stats.InsertPhaseTime += time.Since(start)
	}

	finishStart := time.Now()
	if err := ses.AwaitReady(full); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	e.stats.ChunksStolen += int(ses.Stolen())
	ended = true
	if err := ses.End(); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if err := e.store.Finish(); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if nextID > e.store.NextID() {
		if err := e.store.SetNextID(nextID); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: applying batch: %w", err)
		}
	}
	e.stats.StructureTime += time.Since(finishStart)
	return nil
}

// processDeletes implements the lattice-traversal non-FD validation for
// delete batches (paper §5.1, Algorithm 4). Deletes can only resolve
// violations, so the negative cover is validated level-wise from the most
// specific to the most general non-FDs; non-FDs that became valid move to
// the positive cover and are replaced by their maximal generalizations,
// which the traversal validates on the next (lower) level. Validation
// pruning (§5.2) skips every non-FD whose annotated violating record pair
// is still alive. When a level yields too many newly valid FDs, optimistic
// depth-first searches (§5.3) chase the generalizations ahead of the
// level-wise sweep.
//
// Each level classifies its candidates in order, validates the eligible
// ones (gated on their shards' readiness and chunked across the workers),
// then merges the outcomes in candidate order.
func (e *Engine) processDeletes(ses *sched.Session, touched attrset.Set) error {
	clear(e.specCache)
	for level := e.numAttrs; level >= 0; level-- {
		e.levelBuf = e.nonFds.AppendLevel(e.levelBuf[:0], level)
		candidates := e.levelBuf
		if len(candidates) == 0 {
			continue
		}
		outcomes := e.outcomeBuf(len(candidates))
		slots := e.chunkSlots(len(candidates))
		b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), prune: validate.NoPruning}
		for i, cand := range candidates {
			deps := cand.Lhs.With(cand.Rhs)
			// Classification itself reads shard state (witness repair
			// compares cluster ids), so it waits for the candidate's shards
			// — helping with maintenance and chunks while it does.
			if err := ses.AwaitReady(deps); err != nil {
				return err
			}
			kind := e.classifyDelete(cand, touched)
			outcomes[i] = scanOutcome{kind: kind}
			if kind != scanEligible {
				continue
			}
			if e.pool.Background() == 0 {
				r, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs, MinNewID: validate.NoPruning})
				if err != nil {
					return err
				}
				foldOutcome(&outcomes[i], r)
				continue
			}
			if sl, ok := e.specCache[cand]; ok {
				slots[i] = sl
				e.stats.SpeculativeHits++
				continue
			}
			slots[i] = b.add(cand, deps)
		}
		b.flush()
		// Preview the next level's pre-existing non-FDs while this level's
		// chunks run; candidates promoted by this merge are speculated as
		// they appear below.
		if e.pool.Background() > 0 && level > 0 {
			e.speculateDeleteLevel(ses, level-1, touched)
		}
		var validFds []fd.FD
		for i, cand := range candidates {
			o := &outcomes[i]
			if o.kind == scanEligible {
				if err := e.resolveOutcome(ses, o, slots[i]); err != nil {
					return err
				}
			}
			if e.applyDeleteOutcome(cand, *o) {
				validFds = append(validFds, cand)
			}
		}
		sb := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), prune: validate.NoPruning}
		for _, f := range validFds {
			if !e.nonFds.Contains(f.Lhs, f.Rhs) {
				continue
			}
			e.promoteNonFD(f)
			if e.pool.Background() > 0 && level > 0 {
				e.speculatePromoted(sb, f, touched)
			}
		}
		sb.flush()
		if e.cfg.DepthFirstSearch &&
			float64(len(validFds)) > e.cfg.EfficiencyThreshold*float64(len(candidates)) {
			e.depthFirstSearches(validFds)
		}
	}
	return nil
}

// speculateDeleteLevel submits validations for the next level's existing
// non-FDs ahead of their classification. Best-effort and strictly
// non-blocking: only candidates whose shards are already published are
// previewed, because delete-side classification reads shard state.
func (e *Engine) speculateDeleteLevel(ses *sched.Session, level int, touched attrset.Set) {
	e.specBuf = e.nonFds.AppendLevel(e.specBuf[:0], level)
	if len(e.specBuf) == 0 {
		return
	}
	ready := ses.Ready()
	b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(e.specBuf)), prune: validate.NoPruning}
	for _, cand := range e.specBuf {
		if _, ok := e.specCache[cand]; ok {
			continue
		}
		deps := cand.Lhs.With(cand.Rhs)
		if !deps.IsSubsetOf(ready) {
			continue
		}
		if e.classifyDelete(cand, touched) != scanEligible {
			continue
		}
		e.specCache[cand] = b.add(cand, deps)
		e.stats.SpeculativeValidations++
	}
	b.flush()
}

// speculatePromoted submits validations for the generalizations a
// promotion just added to the negative cover — the next level's freshest
// candidates. Their shards are a subset of the promoted FD's, which the
// classification already awaited.
func (e *Engine) speculatePromoted(b *chunkBuilder, f fd.FD, touched attrset.Set) {
	f.Lhs.ForEach(func(r int) bool {
		gen := fd.FD{Lhs: f.Lhs.Without(r), Rhs: f.Rhs}
		if _, ok := e.specCache[gen]; ok {
			return true
		}
		if e.classifyDelete(gen, touched) != scanEligible {
			return true
		}
		e.specCache[gen] = b.add(gen, gen.Lhs.With(gen.Rhs))
		e.stats.SpeculativeValidations++
		return true
	})
}

// processInserts implements the lattice-traversal FD validation for insert
// batches (paper §4.1, Algorithm 2). Inserts can only invalidate FDs, so
// the positive cover is validated level-wise from the most general to the
// most specific candidates; invalidated FDs move to the negative cover and
// are replaced by their minimal specializations, which the traversal
// validates when it reaches their level. When a level yields too many
// invalid candidates, the progressive violation search (§4.3) takes over
// the hunt for further violations.
//
// The insert sweep needs the whole store (delta masks and the violation
// search read every attribute), so it waits for full maintenance once,
// then pipelines levels: chunked validation, speculative next-level
// submission, merge in candidate order. minNewID is the smallest
// surrogate id assigned in this batch; newIDs are all ids inserted by the
// batch; touched holds the columns the batch may have changed (all
// columns unless update-column pruning narrowed it).
func (e *Engine) processInserts(ses *sched.Session, minNewID int64, newIDs []int64, touched attrset.Set) error {
	if err := ses.AwaitReady(attrset.Full(e.numAttrs)); err != nil {
		return err
	}
	e.computeDeltaMasks(newIDs)
	clear(e.specCache)
	prune := validate.NoPruning
	if e.cfg.ClusterPruning {
		prune = minNewID
	}
	for level := 0; level <= e.numAttrs; level++ {
		e.levelBuf = e.fds.AppendLevel(e.levelBuf[:0], level)
		candidates := e.levelBuf
		if len(candidates) == 0 {
			continue
		}
		outcomes := e.outcomeBuf(len(candidates))
		slots := e.chunkSlots(len(candidates))
		b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), prune: prune}
		for i, cand := range candidates {
			kind := e.classifyInsert(cand, touched)
			outcomes[i] = scanOutcome{kind: kind}
			if kind != scanEligible {
				continue
			}
			if e.pool.Background() == 0 {
				r, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs, MinNewID: prune})
				if err != nil {
					return err
				}
				foldOutcome(&outcomes[i], r)
				continue
			}
			if sl, ok := e.specCache[cand]; ok {
				slots[i] = sl
				e.stats.SpeculativeHits++
				continue
			}
			slots[i] = b.add(cand, attrset.Set{})
		}
		b.flush()
		if e.pool.Background() > 0 && level < e.numAttrs {
			e.speculateInsertLevel(ses, level+1, prune, touched)
		}
		sb := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), prune: prune}
		invalid := 0
		for i, cand := range candidates {
			o := &outcomes[i]
			if o.kind == scanEligible {
				if err := e.resolveOutcome(ses, o, slots[i]); err != nil {
					return err
				}
			}
			inv, specialized := e.applyInsertOutcome(cand, *o)
			if inv {
				invalid++
			}
			if specialized && e.pool.Background() > 0 {
				e.speculateSpecialized(sb, cand, touched)
			}
		}
		sb.flush()
		if float64(invalid) > e.cfg.EfficiencyThreshold*float64(len(candidates)) {
			e.violationSearch(newIDs)
		}
	}
	return nil
}

// speculateInsertLevel submits validations for the next level's existing
// positive-cover members ahead of their classification. The store is fully
// maintained during the insert sweep, so no readiness check is needed.
func (e *Engine) speculateInsertLevel(ses *sched.Session, level int, prune int64, touched attrset.Set) {
	e.specBuf = e.fds.AppendLevel(e.specBuf[:0], level)
	if len(e.specBuf) == 0 {
		return
	}
	b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(e.specBuf)), prune: prune}
	for _, cand := range e.specBuf {
		if _, ok := e.specCache[cand]; ok {
			continue
		}
		if e.classifyInsert(cand, touched) != scanEligible {
			continue
		}
		e.specCache[cand] = b.add(cand, attrset.Set{})
		e.stats.SpeculativeValidations++
	}
	b.flush()
}

// speculateSpecialized submits validations for the minimal specializations
// an invalidation just added to the positive cover — the next level's
// freshest candidates.
func (e *Engine) speculateSpecialized(b *chunkBuilder, cand fd.FD, touched attrset.Set) {
	for r := 0; r < e.numAttrs; r++ {
		if cand.Lhs.Contains(r) || r == cand.Rhs {
			continue
		}
		spec := fd.FD{Lhs: cand.Lhs.With(r), Rhs: cand.Rhs}
		if _, ok := e.specCache[spec]; ok {
			continue
		}
		if e.classifyInsert(spec, touched) != scanEligible {
			continue
		}
		e.specCache[spec] = b.add(spec, attrset.Set{})
		e.stats.SpeculativeValidations++
	}
}
