package main

// Host-speed normalisation. The host's speed drifts by a quarter or more
// over minutes, in wall and CPU time alike, so a raw time per operation
// moves between runs of the same code by more than any bound worth
// gating. perfbench therefore runs the reference workload (refwork, a
// fixed program that imports nothing from the repository) before the
// first measured sample and after every one, and reports each sample as a
// multiple of the reference runs on either side of it. A change to the
// program moves that ratio; a slower host moves both sides of it.

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
)

// refTimer runs refwork between measured samples.
type refTimer struct {
	bin  string
	work string
	out  bytes.Buffer
	prev sample // the reference run before the sample being measured
	want []byte // refwork's output, which never changes
}

// newRef runs the reference once, ahead of the first sample.
func (b *bench) newRef() (*refTimer, error) {
	r := &refTimer{bin: filepath.Join(b.bin, "refwork"), work: b.work}
	s, err := runProgram(r.bin, nil, r.work, &r.out)
	if err != nil {
		return nil, err
	}
	r.prev, r.want = s, bytes.Clone(s.Out)
	return r, nil
}

// next runs the reference after a sample and returns the wall and CPU
// times, in ms, to divide that sample by: the geometric means of the
// reference runs before and after it.
func (r *refTimer) next() (wall, cpu float64, err error) {
	s, err := runProgram(r.bin, nil, r.work, &r.out)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(s.Out, r.want) {
		return 0, 0, fmt.Errorf("refwork printed %q, earlier %q", s.Out, r.want)
	}
	wall = math.Sqrt(ms(r.prev.Wall) * ms(s.Wall))
	cpu = math.Sqrt(ms(r.prev.CPU) * ms(s.CPU))
	r.prev = s
	return wall, cpu, nil
}
