package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynfd/internal/datagen"
	"dynfd/internal/fd"
	"dynfd/internal/stream"
)

// coverText renders an engine's final FD and non-FD covers, each in the
// covers' deterministic sorted order, one dependency per line.
func coverText(e *Engine) string {
	var b strings.Builder
	section := func(title string, fds []fd.FD) {
		fmt.Fprintf(&b, "%s %d\n", title, len(fds))
		for _, f := range fds {
			fmt.Fprintln(&b, f)
		}
	}
	section("fds", e.FDs())
	section("nonfds", e.NonFDs())
	return b.String()
}

// TestGoldenCovers replays datagen's insert-heavy, update-heavy and
// insert-only histories (scale 0.03 with the profiles' fixed seeds,
// batches of 25, the paper's configuration) at worker counts 0, 1, 2 and
// 4 and requires the final covers to be byte-identical to the pinned
// files. The files were recorded with the level-scan engine that preceded
// the pipelined scheduler (commit b74c443, Workers: 0), so they anchor
// worker-count equivalence on an independent implementation.
func TestGoldenCovers(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"single", "disease", "claims"} {
		path := filepath.Join("testdata", "golden_"+name+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := datagen.Generate(p.Scaled(0.03))
		if err != nil {
			t.Fatal(err)
		}
		batches := stream.FixedBatches(d.Changes, 25)
		for _, workers := range []int{0, 1, 2, 4} {
			e, err := Bootstrap(d.Relation, parallelConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if _, err := e.ApplyBatch(b); err != nil {
					t.Fatalf("%s workers=%d batch %d: %v", name, workers, i, err)
				}
			}
			if got := coverText(e); got != string(want) {
				t.Errorf("%s workers=%d: covers differ from %s\n got:\n%s", name, workers, path, got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
}
