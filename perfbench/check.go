package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynfd"
)

// fdSet is a set of minimal FDs keyed "lhs,attr,indexes->rhs".
type fdSet map[string]bool

func fdKey(lhs []int, rhs int) string {
	l := append([]int(nil), lhs...)
	sort.Ints(l)
	parts := make([]string, len(l))
	for i, a := range l {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",") + "->" + strconv.Itoa(rhs)
}

func toSet(fds []dynfd.FD) fdSet {
	s := make(fdSet, len(fds))
	for _, f := range fds {
		s[fdKey(f.Lhs, f.Rhs)] = true
	}
	return s
}

// diffFDs reports how got differs from want, or nil when they are equal.
func diffFDs(want, got fdSet) error {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("FD sets differ: %d missing (first %v), %d extra (first %v)",
		len(missing), first(missing), len(extra), first(extra))
}

func first(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// staticFDs runs HyFD over rows: the reference the maintained FDs must equal.
func staticFDs(columns []string, rows [][]string) (fdSet, error) {
	fds, err := dynfd.Discover(columns, rows, dynfd.AlgorithmHyFD)
	if err != nil {
		return nil, err
	}
	return toSet(fds), nil
}

// getFDs reads a tenant's FDs and snapshot seq over HTTP.
func getFDs(c *http.Client, base, name string, columns []string) (uint64, fdSet, error) {
	resp, err := c.Get(base + "/v1/tenants/" + name + "/fds")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Seq uint64 `json:"seq"`
		FDs []struct {
			Lhs []string `json:"lhs"`
			Rhs string   `json:"rhs"`
		} `json:"fds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, nil, err
	}
	index := make(map[string]int, len(columns))
	for i, c := range columns {
		index[c] = i
	}
	set := make(fdSet, len(body.FDs))
	for _, f := range body.FDs {
		lhs := make([]int, len(f.Lhs))
		for i, a := range f.Lhs {
			lhs[i] = index[a]
		}
		set[fdKey(lhs, index[f.Rhs])] = true
	}
	return body.Seq, set, nil
}

// checkFollower waits for the follower to reach the primary's seq, then
// requires its FD set to equal the primary's.
func checkFollower(c *http.Client, svc *service, seq uint64, primary fdSet, columns []string) error {
	if err := svc.awaitFollower(seq, 30*time.Second); err != nil {
		return err
	}
	fseq, fds, err := getFDs(c, svc.fapi.url, tenant, columns)
	if err != nil {
		return fmt.Errorf("follower /fds: %w", err)
	}
	if fseq != seq {
		return fmt.Errorf("follower seq %d, primary seq %d", fseq, seq)
	}
	if err := diffFDs(primary, fds); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return nil
}

// checkIDs requires an ack's inserted ids to equal the ids datagen
// predicted for the batch.
func checkIDs(want, got []int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("inserted_ids has %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("inserted_ids[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkAcks counts the failed writes of a run: transport errors, non-2xx
// statuses, and acks whose seq or inserted ids are wrong. base is the
// tenant's seq before the first batch. The first wrong ack is returned as
// mismatch; a write that failed outright is counted but has no content to
// check.
func checkAcks(acks []ack, in *inputs, base uint64) (failed int, mismatch error) {
	for i, a := range acks {
		if a.err != nil || a.status != http.StatusOK {
			failed++
			continue
		}
		err := checkIDs(in.wantIDs[i], a.ids)
		if want := base + uint64(i) + 1; a.seq != want {
			err = fmt.Errorf("seq %d, want %d", a.seq, want)
		}
		if err != nil {
			failed++
			if mismatch == nil {
				mismatch = fmt.Errorf("batch %d: %w", i, err)
			}
		}
	}
	return failed, mismatch
}
