package disk

import (
	"fmt"
	"math/rand"

	"qpi/internal/data"
	"qpi/internal/exec"
)

// Scan streams tuples from an on-disk table file, implementing
// exec.Operator. Like the in-memory scan it can deliver a block-level
// random sample first (the paper's precomputed disk samples) and fires
// the same hooks, so the whole estimation framework attaches unchanged.
type Scan struct {
	file  *TableFile
	alias string

	// SampleFraction in [0,1] selects the size of the random block sample
	// delivered first; 0 scans sequentially.
	SampleFraction float64
	// Seed makes the block sample reproducible.
	Seed int64

	// OnTuple fires for every emitted tuple.
	OnTuple func(data.Tuple)
	// OnSampleEnd fires once, after the last tuple of the random sample.
	OnSampleEnd func()

	stats  exec.Stats
	schema *data.Schema

	order      []int
	orderPos   int
	block      []data.Tuple
	blockPos   int
	sampleLeft int64
	punctuated bool
}

// NewScan opens a scan over an on-disk table. alias renames the output
// columns ("" keeps the stored aliases).
func NewScan(file *TableFile, alias string) *Scan {
	s := &Scan{file: file, alias: alias}
	s.schema = file.Schema()
	if alias != "" {
		s.schema = s.schema.Rename(alias)
	}
	s.stats.InputTotal = file.NumRows()
	s.stats.SetEstimate(float64(file.NumRows()), "exact")
	return s
}

// Name implements exec.Operator.
func (s *Scan) Name() string {
	if s.alias != "" {
		return fmt.Sprintf("DiskScan(%s)", s.alias)
	}
	return "DiskScan"
}

// Schema implements exec.Operator.
func (s *Scan) Schema() *data.Schema { return s.schema }

// Children implements exec.Operator.
func (s *Scan) Children() []exec.Operator { return nil }

// Stats implements exec.Operator.
func (s *Scan) Stats() *exec.Stats { return &s.stats }

// Open implements exec.Operator.
func (s *Scan) Open() error {
	if !(s.SampleFraction >= 0 && s.SampleFraction <= 1) {
		return fmt.Errorf("disk: scan sample fraction %g out of [0,1]", s.SampleFraction)
	}
	nb := s.file.NumBlocks()
	s.order = make([]int, 0, nb)
	k := int(s.SampleFraction * float64(nb))
	if k > 0 {
		rng := rand.New(rand.NewSource(s.Seed))
		perm := rng.Perm(nb)
		inSample := make([]bool, nb)
		for _, b := range perm[:k] {
			s.order = append(s.order, b)
			inSample[b] = true
			s.sampleLeft += int64(s.file.counts[b])
		}
		for i := 0; i < nb; i++ {
			if !inSample[i] {
				s.order = append(s.order, i)
			}
		}
	} else {
		for i := 0; i < nb; i++ {
			s.order = append(s.order, i)
		}
	}
	s.punctuated = s.sampleLeft == 0
	s.orderPos, s.blockPos, s.block = 0, 0, nil
	return nil
}

// Next implements exec.Operator.
func (s *Scan) Next() (data.Tuple, error) {
	for {
		if s.blockPos < len(s.block) {
			t := s.block[s.blockPos]
			s.blockPos++
			if s.OnTuple != nil {
				s.OnTuple(t)
			}
			if !s.punctuated {
				s.sampleLeft--
				if s.sampleLeft == 0 {
					s.punctuated = true
					if s.OnSampleEnd != nil {
						s.OnSampleEnd()
					}
				}
			}
			s.stats.Emitted.Add(1)
			return t, nil
		}
		if s.orderPos >= len(s.order) {
			s.stats.MarkDone()
			return nil, nil
		}
		blk, err := s.file.ReadBlock(s.order[s.orderPos])
		if err != nil {
			return nil, err
		}
		s.orderPos++
		s.block = blk
		s.blockPos = 0
	}
}

// Close implements exec.Operator.
func (s *Scan) Close() error {
	s.block = nil
	return nil
}

var _ exec.Operator = (*Scan)(nil)
