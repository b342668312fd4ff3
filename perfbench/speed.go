package main

// The host's speed index. Other tenants of a shared host slow the
// simulator by as much as 3x within an hour, mostly by contending for the
// caches and memory bandwidth, and CPU time does not hide that. A fixed
// reference kernel timed next to every experiment slows with them, so
// scaling the simulator's times by it cancels most of the drift.

import (
	"syscall"
	"unsafe"
)

const (
	// walkWords sizes the latency half of the reference: a dependent
	// random walk of walkSteps loads over 2 MiB, the size of this
	// generation's per-core L2, which the simulator's hot state overflows.
	walkWords = 1 << 19
	walkSteps = 1 << 18
	// passWords sizes the bandwidth half: passes strided reads, one per
	// 64-byte line, over 16 MiB.
	passWords = 1 << 22
	passes    = 8
	lineWords = 16
	// refNominalNs is the nominal CPU time of one reference run. Scaled
	// times estimate CPU time on a host where the reference takes this
	// long; a quiet 2-vCPU Xeon VM measures about this.
	refNominalNs = 15e6
	// refBytes is the reference tables' resident size.
	refBytes = (walkWords + passWords) * 4
)

// refTables is the reference kernel's state. It is mapped outside the Go
// heap so that it changes neither the collector's pacing nor its work.
type refTables struct{ walk, pass []uint32 }

func newRefTables() (*refTables, error) {
	walk, err := mapWords(walkWords)
	if err != nil {
		return nil, err
	}
	pass, err := mapWords(passWords)
	if err != nil {
		return nil, err
	}
	return &refTables{walk, pass}, nil
}

// mapWords maps n words and fills them with a fixed pseudo-random
// sequence, which also makes them resident.
func mapWords(n int) ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t, nil
}

// runNs runs the reference once and returns its CPU ns.
func (t *refTables) runNs() float64 {
	c0 := cpuTime()
	j := uint32(1)
	for i := uint32(0); i < walkSteps; i++ {
		j = t.walk[j&(walkWords-1)] + i
	}
	for p := 0; p < passes; p++ {
		for i := 0; i < passWords; i += lineWords {
			j += t.pass[i]
		}
	}
	refSink += j
	return float64(cpuTime() - c0)
}

var refSink uint32
