package flight

import (
	"testing"
	"time"
)

// benchSpec is the fixed scenario the flight benchmarks run: a bench-scale
// sharded scaling incident under the phi detector with the overload ladder.
func benchSpec(b *testing.B) RunSpec {
	spec, err := RunSpec{
		Seed:        2026,
		Players:     2500,
		Supernodes:  200,
		Datacenters: 5,
		Shards:      2,
		Horizon:     20 * time.Second,
		Epoch:       10 * time.Second,
		Detector:    "phi",
		Overload:    true,
		Figures:     []string{"figscale"},
	}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// The three benchmarks measure what the flight recorder costs on top of the
// run it captures: FlightRun executes the spec without capturing,
// FlightRecordOverhead is the full Record path (canonical encodings,
// schedule marshalling, chunk framing), FlightReplay is the verification
// re-run against a prebuilt recording. (Record − Run) / Run is the recording
// overhead DESIGN.md §15 quotes:
//
//	go test -run '^$' -bench Flight -benchmem ./internal/flight/

func BenchmarkFlightRun(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlightRecordOverhead(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Record(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(Encode(rec)) == 0 {
			b.Fatal("empty recording")
		}
	}
}

func BenchmarkFlightReplay(b *testing.B) {
	rec, err := Record(benchSpec(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rec.Replay("")
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Identical() {
			b.Fatal("replay diverged")
		}
	}
}
