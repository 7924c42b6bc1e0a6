// Package workloads builds the benchmark guest programs of the Risotto
// paper's evaluation (§7): PARSEC- and Phoenix-style multithreaded kernels
// (Figure 12), OpenSSL/sqlite/libm library workloads exercising the dynamic
// host linker (Figures 13–14), and the CAS contention microbenchmark
// (Figure 15). Every kernel is written once in the portable DSL
// (internal/portasm) and emitted both as a guest image for the DBT and as
// a native host image.
//
// Kernels reproduce each benchmark's characteristic memory/compute mix
// rather than its full algorithm (DESIGN.md documents the substitution);
// inputs are deterministic, and each kernel self-checks by exiting with a
// checksum that must agree across all DBT variants and native execution.
package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/portasm"
)

// Kernel is one Figure-12 benchmark.
type Kernel struct {
	// Name matches the paper's x-axis label.
	Name string
	// Suite is "parsec" or "phoenix".
	Suite string
	// Build constructs the program for the given thread count and scale
	// (scale 1 = default problem size; larger = proportionally more work).
	Build func(threads, scale int) (*portasm.Builder, error)
}

// Registry returns all Figure-12 kernels in the paper's order.
func Registry() []Kernel {
	return []Kernel{
		{"blackscholes", "parsec", Blackscholes},
		{"bodytrack", "parsec", Bodytrack},
		{"canneal", "parsec", Canneal},
		{"facesim", "parsec", Facesim},
		{"fluidanimate", "parsec", Fluidanimate},
		{"freqmine", "parsec", Freqmine},
		{"streamcluster", "parsec", Streamcluster},
		{"swaptions", "parsec", Swaptions},
		{"vips", "parsec", Vips},
		{"histogram", "phoenix", Histogram},
		{"kmeans", "phoenix", Kmeans},
		{"linearregression", "phoenix", LinearRegression},
		{"matrixmultiply", "phoenix", MatrixMultiply},
		{"pca", "phoenix", PCA},
		{"stringmatch", "phoenix", StringMatch},
		{"wordcount", "phoenix", WordCount},
		{"fencechain", "micro", FenceChain},
	}
}

// KernelByName finds a kernel.
func KernelByName(name string) (Kernel, error) {
	for _, k := range Registry() {
		if k.Name == name {
			return k, nil
		}
	}
	var names []string
	for _, k := range Registry() {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return Kernel{}, fmt.Errorf("workloads: unknown kernel %q (have %v)", name, names)
}

// Virtual register aliases for readability inside kernels.
const (
	r0 portasm.Reg = iota
	r1
	r2
	r3
	r4
	r5
	r6
	r7
	r8
	r9
)

// forkJoin emits a main that spawns `threads` workers running the label
// "worker" with tid as argument, joins them all, runs emitAfter (which
// must end with Exit), and defines nothing else. Uses r0–r3 in main.
func forkJoin(b *portasm.Builder, threads int, emitAfter func()) {
	ids := b.Zeros(8 * threads)
	b.Label("main").
		MovI(r0, 0).
		MovI(r1, int64(ids)).
		Label("__spawn").
		Spawn(r2, "worker", r0).
		StIdx(r1, r0, 8, r2, 8).
		AddI(r0, 1).
		CmpI(r0, int64(threads)).
		J(portasm.NE, "__spawn").
		MovI(r0, 0).
		Label("__join").
		LdIdx(r2, r1, r0, 8, 8).
		Join(r3, r2).
		AddI(r0, 1).
		CmpI(r0, int64(threads)).
		J(portasm.NE, "__join")
	emitAfter()
}

// exitChecksum ends main with the 8-byte value at addr (mod 2^32 to keep
// exit codes readable).
func exitChecksum(b *portasm.Builder, addr uint64) func() {
	return func() {
		b.MovI(r0, int64(addr)).
			Ld(r1, r0, 0, 8).
			MovI(r2, 0xFFFFFFFF).
			Alu(portasm.And, r1, r2).
			Exit(r1)
	}
}

// chunk returns [start, end) for worker tid of `threads` over n items,
// assuming threads divides n.
func chunkBounds(b *portasm.Builder, tidReg, startReg, endReg portasm.Reg, n, threads int) {
	per := n / threads
	b.Mov(startReg, tidReg).
		MulI(startReg, int64(per)).
		Mov(endReg, startReg).
		AddI(endReg, int64(per))
}

func errPow2(kernel string, threads int) error {
	return fmt.Errorf("workloads: %s requires a power-of-two thread count, got %d", kernel, threads)
}

// bytesOf builds deterministic pseudo-random bytes.
func bytesOf(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// wordsOf builds deterministic pseudo-random 64-bit words, bounded.
func wordsOf(seed int64, n int, bound int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(rng.Int63n(bound)))
	}
	return out
}
