package main

// The correctness oracle's pinned references. refs.json holds, for every
// cell of the detailed pool, its simulated result (cycles, committed,
// restricted, output digest); for every cell of the sampled pool, both the
// sampled estimate and the full detailed walk it estimates; the Table 1
// verdict matrix; and the PoC corpus digest of every pinned fuzz seed.
// `go run . -pin` recomputes it.
//
// A simulator-only change must leave every one of these identical, so any
// difference is a failed operation, not a fast one.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// cellRef is one cell's pinned simulated result.
type cellRef struct {
	Cycles     uint64 `json:"cycles"`
	Committed  uint64 `json:"committed"`
	Restricted uint64 `json:"restricted"`
	OutputSHA  string `json:"output_sha"`
}

// sampledRef pins a sampled cell: the estimate itself and the full detailed
// walk of the same program, whose IPC the estimate is scored against.
type sampledRef struct {
	Sampled cellRef `json:"sampled"`
	Full    cellRef `json:"full"`
}

// fuzzRef pins one fuzz seed's batch: how many PoCs it writes and the digest
// of the corpus (file names and bytes, in name order).
type fuzzRef struct {
	PoCs   int    `json:"pocs"`
	SHA256 string `json:"sha256"`
}

type references struct {
	Detailed map[string]cellRef    `json:"detailed"`
	Sampled  map[string]sampledRef `json:"sampled"`
	Table1   map[string][]string   `json:"table1"` // attack -> verdict word per Table 1 column
	Fuzz     map[string]fuzzRef    `json:"fuzz"`   // fuzz seed -> batch pin
}

//go:embed refs.json
var refsJSON []byte

var refs references

func loadRefs() error {
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// diff describes how got differs from a pinned reference, or "" when equal.
func (want cellRef) diff(got cellRef) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("got cycles=%d committed=%d restricted=%d output=%s, pinned cycles=%d committed=%d restricted=%d output=%s",
		got.Cycles, got.Committed, got.Restricted, got.OutputSHA,
		want.Cycles, want.Committed, want.Restricted, want.OutputSHA)
}
