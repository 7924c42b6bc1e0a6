package core

import (
	"testing"

	"repro/internal/workloads"
)

// BenchmarkTranslation measures translation throughput (guest bytes per
// host second): build a kernel image and translate every block once.
func BenchmarkTranslation(b *testing.B) {
	k, err := workloads.KernelByName("matrixmultiply")
	if err != nil {
		b.Fatal(err)
	}
	pb, err := k.Build(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	img, err := pb.BuildGuest("main")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var guestBytes uint64
	for i := 0; i < b.N; i++ {
		rt, err := newRuntime(config{Variant: VariantRisotto}, img)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
		guestBytes = rt.Stats().GuestBytes
	}
	b.SetBytes(int64(guestBytes))
}

// BenchmarkEndToEnd measures the DBT's full simulated-execution throughput
// per variant on a small kernel (host ns per run).
func BenchmarkEndToEnd(b *testing.B) {
	k, err := workloads.KernelByName("histogram")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range allVariants {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			pb, err := k.Build(2, 1)
			if err != nil {
				b.Fatal(err)
			}
			img, err := pb.BuildGuest("main")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := newRuntime(config{Variant: v}, img)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
