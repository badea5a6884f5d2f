package disk

import (
	"fmt"
	"math/rand"

	"qpi/internal/data"
	"qpi/internal/exec"
)

// Scan streams tuples from an on-disk table file, implementing
// exec.Operator with row-backed batches of decoded blocks. Like the
// in-memory scan it can deliver a block-level random sample first (the
// paper's precomputed disk samples) and punctuates it with OnSampleEnd, so
// the whole estimation framework attaches unchanged.
type Scan struct {
	file  *TableFile
	alias string

	// SampleFraction in [0,1] selects the size of the random block sample
	// delivered first; 0 scans sequentially.
	SampleFraction float64
	// Seed makes the block sample reproducible.
	Seed int64

	// OnSampleEnd fires once, after the batch that ends the random sample
	// is counted: a batch never straddles the sample's end.
	OnSampleEnd func()

	stats  exec.Stats
	schema *data.Schema

	order      []int
	orderPos   int
	block      []data.Tuple
	blockPos   int
	sampleLeft int64
	punctuated bool
	rows       data.Batch
	batch      data.ColBatch
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

// NextColBatch implements exec.Operator: up to a batch of the decoded
// blocks' rows, cut at the end of the random sample.
func (s *Scan) NextColBatch() (*data.ColBatch, error) {
	rows, want := s.rows[:0], data.BatchSize()
	if !s.punctuated {
		want = int(min(int64(want), s.sampleLeft))
	}
	for len(rows) < want {
		if s.blockPos == len(s.block) {
			if s.orderPos == len(s.order) {
				break
			}
			blk, err := s.file.ReadBlock(s.order[s.orderPos])
			if err != nil {
				return nil, err
			}
			s.orderPos++
			s.block, s.blockPos = blk, 0
			continue
		}
		n := min(want-len(rows), len(s.block)-s.blockPos)
		rows = append(rows, s.block[s.blockPos:s.blockPos+n]...)
		s.blockPos += n
	}
	s.rows = rows
	if len(rows) == 0 {
		s.stats.MarkDone()
		return nil, nil
	}
	s.stats.Emitted.Add(int64(len(rows)))
	s.stats.Batches.Add(1)
	if !s.punctuated {
		if s.sampleLeft -= int64(len(rows)); s.sampleLeft == 0 {
			s.punctuated = true
			if s.OnSampleEnd != nil {
				s.OnSampleEnd()
			}
		}
	}
	s.batch.SetRows(rows, s.schema.Len())
	return &s.batch, nil
}

// Close implements exec.Operator.
func (s *Scan) Close() error {
	s.block, s.rows = nil, nil
	return nil
}

var _ exec.Operator = (*Scan)(nil)
