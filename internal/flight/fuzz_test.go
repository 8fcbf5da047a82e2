package flight

import (
	"os"
	"testing"

	"cloudfog/internal/recfmt"
)

// FuzzDecodePayloads feeds raw chunk payloads to the payload decoders:
// `go test -fuzz FuzzDecodePayloads ./internal/flight`. It fuzzes payloads,
// not files, because a whole file is gated by each chunk's CRC and a mutated
// file almost never reaches a decoder. The seeds are every chunk payload of
// the committed corpus plus the figure and observability encodings the figure
// chunks wrap; a plain `go test` runs only those. No input may panic or size
// an allocation by an unchecked count.
func FuzzDecodePayloads(f *testing.F) {
	for _, path := range []string{"../../examples/flight/chaos.flight", "../../examples/flight/sharded.flight"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, rest, err := recfmt.CheckHeader(data, Magic, Version)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for {
			_, payload, next, done, err := recfmt.NextChunk(rest)
			if err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			if done {
				break
			}
			f.Add(payload)
			rest = next
		}
		rec, err := Decode(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, fc := range rec.Figures {
			f.Add(fc.FigBytes)
			f.Add(fc.ObsBytes)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		decodeSpec(payload)
		decodeFigure(payload)
		decodeSnapshot(payload)
		readRNG(recfmt.NewReader(payload))
	})
}
