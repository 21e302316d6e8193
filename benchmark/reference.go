package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The correctness pins: for the default seed, the digest of every output
// the benchmark can produce from its fixed input lists. A run at that seed
// fails any operation whose output differs from its pin. At every seed, an
// input seen twice must give the same output twice.

// referencePath is where -repin writes, relative to the repository root.
const referencePath = "benchmark/reference.json"

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// digestCheck compares every recorded output across operations and rounds
// and, at the pinned seed, against the pins.
type digestCheck struct {
	ref      reference
	seed     int64
	seen     map[string]string
	failures []string
}

func newDigestCheck(ref reference, seed int64) *digestCheck {
	return &digestCheck{ref: ref, seed: seed, seen: map[string]string{}}
}

func (c *digestCheck) add(r roundResult) {
	for _, op := range r.Ops {
		if op.Digest == "" {
			continue
		}
		if prev, ok := c.seen[op.Input]; ok && prev != op.Digest {
			c.failures = append(c.failures, fmt.Sprintf("%s round %d: %s gave %s, earlier %s", r.Workload, r.Round, op.Input, op.Digest, prev))
		}
		c.seen[op.Input] = op.Digest
		if want, ok := c.ref.Digests[op.Input]; ok && c.seed == c.ref.Seed && want != op.Digest {
			c.failures = append(c.failures, fmt.Sprintf("%s round %d: %s gave %s, pinned %s", r.Workload, r.Round, op.Input, op.Digest, want))
		}
	}
}

// pinnedSeed is the default -seed, the one the pins are computed for.
const pinnedSeed = 42

// repin recomputes every pin for the default seed and rewrites
// referencePath. Daemon artifacts are pinned from a direct engine run,
// which every daemon round checks the service against.
func repin(w io.Writer, sz sizes) error {
	ref := reference{Seed: pinnedSeed, Digests: map[string]string{}}
	for k := 0; k < suiteSeeds; k++ {
		s := suiteSeed(pinnedSeed, k)
		d, _, err := runSuite(nil, s)
		if err != nil {
			return err
		}
		ref.Digests[suiteInput(s)] = d
		s = streamSeed(pinnedSeed, k)
		if d, _, err = transmit(nil, s, sz.StreamBits); err != nil {
			return err
		}
		ref.Digests[streamInput(s, sz.StreamBits)] = d
	}
	var fig8 []int64
	for k := 0; k < mixedPrime; k++ {
		fig8 = append(fig8, inputSeed(pinnedSeed, "daemon-mixed", "prime", k))
	}
	for k := 0; k < sz.Prime; k++ {
		fig8 = append(fig8, inputSeed(pinnedSeed, "daemon-saturate", "prime", k))
	}
	for _, s := range fig8 {
		art, err := directFig8(s)
		if err != nil {
			return err
		}
		ref.Digests[fmt.Sprintf("fig8quick:%d", s)] = sha256Hex(art)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d pins to %s\n", len(ref.Digests), referencePath)
	return nil
}
