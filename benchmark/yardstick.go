package main

import (
	"encoding/binary"
	"syscall"
	"time"
)

// The recording box is a small guest whose memory system is shared with
// its neighbours: for minutes at a time everything memory-bound runs up
// to 2x slower while a register-only loop keeps its speed, so the same
// commit measured twice a quarter of an hour apart differs by 20% and
// more. The yardstick is a fixed memory-bound kernel, a streaming read
// of a buffer larger than any cache, timed a few times a second between
// operations. An end-to-end time is reported at reference memory speed:
// multiplied by yardstickRefMs over the run's median yardstick time.
// That halves the run-to-run spread; it cannot hide a regression,
// because the kernel shares no code with the program. The traced run
// reports the yardstick itself (runtime.yardstick_ms) and leaves its
// times as measured.
const (
	// yardstickRefMs is the kernel's time on the recording box when its
	// neighbours are quiet.
	yardstickRefMs = 5.5
	yardstickBytes = 32 << 20
	yardstickEvery = 250 * time.Millisecond
)

type yardstick struct {
	// mem is mapped outside the Go heap: 32 MiB of live heap would
	// double the collector's heap goal and change what is measured.
	mem   []byte
	times samples // ms per kernel run
	last  time.Time
	sink  uint64
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardstickBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := range mem {
		mem[i] = byte(i) // touch every page
	}
	return &yardstick{mem: mem}, nil
}

// tick times the kernel once if yardstickEvery has passed since the
// last time. Callers call it between operations, never inside one.
func (y *yardstick) tick() {
	if time.Since(y.last) < yardstickEvery {
		return
	}
	t := time.Now()
	var s uint64
	for i := 0; i+64 <= len(y.mem); i += 64 {
		line := y.mem[i : i+64 : i+64] // one bounds check per cache line
		s += binary.LittleEndian.Uint64(line[0:]) + binary.LittleEndian.Uint64(line[8:]) +
			binary.LittleEndian.Uint64(line[16:]) + binary.LittleEndian.Uint64(line[24:]) +
			binary.LittleEndian.Uint64(line[32:]) + binary.LittleEndian.Uint64(line[40:]) +
			binary.LittleEndian.Uint64(line[48:]) + binary.LittleEndian.Uint64(line[56:])
	}
	y.sink += s
	y.last = time.Now()
	y.times.addDur(y.last.Sub(t))
}

// factor is what a measured time is multiplied by to state it at
// reference memory speed.
func (y *yardstick) factor() float64 {
	if len(y.times) == 0 {
		return 1
	}
	return yardstickRefMs / y.times.median()
}

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }
