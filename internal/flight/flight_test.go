package flight

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/experiment"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
	"cloudfog/internal/recfmt"
)

// testSpec is a small world the record/replay tests can afford dozens of
// times: enough supernodes to share among several workers, few enough players
// that a 45-second horizon runs in milliseconds (mirrors the experiment
// package's scaleTestConfig).
func testSpec(seed int64, shards int) RunSpec {
	return RunSpec{
		Seed:        seed,
		Players:     400,
		Supernodes:  25,
		Datacenters: 3,
		Shards:      shards,
		Horizon:     45 * time.Second,
		Epoch:       15 * time.Second,
		Figures:     []string{"figscale"},
	}
}

// TestRecordReplayProperty is the tentpole property test: for 16 seeds and
// shard counts 1 and 4, a recorded run decodes from its own bytes and
// replays bit-identically — figure bytes, per-figure observability deltas,
// RNG draw counts, compiled schedules, and the final snapshot all match.
// Odd seeds run the phi detector with the overload ladder so both
// detection paths are covered. The RNG witness is exactly the qoe and fog
// streams, and it and the figure bytes must also agree across the two shard
// counts (the recorder inherits the worker-count-invariance contract).
func TestRecordReplayProperty(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		var acrossShards [][]byte
		var witness [][]RNGStream
		for _, shards := range []int{1, 4} {
			spec := testSpec(seed, shards)
			if seed%2 == 1 {
				spec.Detector = "phi"
				spec.Overload = true
			}
			rec, err := Record(spec)
			if err != nil {
				t.Fatalf("seed %d shards %d: record: %v", seed, shards, err)
			}
			if len(rec.Figures) != 1 || rec.Figures[0].Name != "figscale" {
				t.Fatalf("seed %d shards %d: captured %d figures", seed, shards, len(rec.Figures))
			}
			rng := rec.Figures[0].RNG
			if len(rng) != 2 || rng[0].Label != "qoe" || rng[1].Label != "fog" {
				t.Fatalf("seed %d shards %d: RNG streams %+v, want qoe and fog", seed, shards, rng)
			}
			for _, s := range rng {
				if s.Draws == 0 {
					t.Fatalf("seed %d shards %d: stream %s consumed no draws", seed, shards, s.Label)
				}
			}
			if len(rec.Schedules) != 1 || rec.Schedules[0].Label != "scale" {
				t.Fatalf("seed %d shards %d: schedules %+v", seed, shards, rec.Schedules)
			}

			data := Encode(rec)
			dec, err := Decode(data)
			if err != nil {
				t.Fatalf("seed %d shards %d: decode: %v", seed, shards, err)
			}
			if !bytes.Equal(Encode(dec), data) {
				t.Fatalf("seed %d shards %d: encode/decode round trip is not byte-stable", seed, shards)
			}

			rep, err := dec.Replay("")
			if err != nil {
				t.Fatalf("seed %d shards %d: replay: %v", seed, shards, err)
			}
			if !rep.Identical() {
				t.Fatalf("seed %d shards %d: replay diverged: %+v", seed, shards, rep.Divergences)
			}
			acrossShards = append(acrossShards, rec.Figures[0].FigBytes)
			witness = append(witness, rng)
		}
		if !reflect.DeepEqual(witness[0], witness[1]) {
			t.Fatalf("seed %d: RNG witness differs between 1 and 4 shards:\n 1: %+v\n 4: %+v", seed, witness[0], witness[1])
		}
		if !bytes.Equal(acrossShards[0], acrossShards[1]) {
			t.Fatalf("seed %d: figure bytes differ between 1 and 4 shards", seed)
		}
	}
}

// TestScaleRunFeedsFaultLedger: the scaling run's kills and orphans are in the
// registry its failovers already count into, so the orphan ledger of a world
// that ran figscale is present and balances — in both detection modes, with
// orphans still pending at the horizon.
func TestScaleRunFeedsFaultLedger(t *testing.T) {
	for _, detector := range []string{"", "phi"} {
		reg := obs.NewRegistry()
		w, _, _, err := testSpec(3, 2).Start(reg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := experiment.ScaleRun(w, experiment.RunOptions{
			Horizon: 45 * time.Second, ScaleEpoch: 15 * time.Second,
			Detector: detector, Overload: detector != "",
		})
		if err != nil {
			t.Fatal(err)
		}
		l := Reconcile(reg.Snapshot())
		if err := l.Err(); err != nil {
			t.Fatalf("detector %q: %v", detector, err)
		}
		if l.Faults == nil || l.Faults.Kills != res.Kills || l.Faults.Kills == 0 || l.Faults.PendingEnd != res.PendingEnd {
			t.Fatalf("detector %q: fault ledger %+v after a run with %d kills, %d orphans pending", detector, l.Faults, res.Kills, res.PendingEnd)
		}
	}
}

// TestReplayFromCheckpoint verifies the checkpoint-suffix path: a recording
// of two figures replays from the second alone, skipping the first, and
// still verifies bit-identically; a checkpoint name outside the selection
// is rejected.
func TestReplayFromCheckpoint(t *testing.T) {
	spec := testSpec(5, 2)
	spec.Figures = []string{"fig8a", "figscale"}
	spec.Horizon = 30 * time.Second
	rec, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Figures) != 2 {
		t.Fatalf("captured %d figures, want 2", len(rec.Figures))
	}
	if len(rec.Figures[0].Fig.Latency) == 0 {
		t.Fatal("fig8a recorded no latency rows: the skipped checkpoint would prove nothing")
	}
	rep, err := rec.Replay("figscale")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Fatalf("checkpoint replay diverged: %+v", rep.Divergences)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "fig8a" {
		t.Fatalf("skipped %v, want [fig8a]", rep.Skipped)
	}
	if len(rep.Checked) != 1 || rep.Checked[0] != "figscale" {
		t.Fatalf("checked %v, want [figscale]", rep.Checked)
	}
	if _, err := rec.Replay("fig5a"); err == nil {
		t.Fatal("checkpoint outside the selection was accepted")
	}
}

// TestReplayDetectsTampering flips one recorded figure byte and one RNG
// draw count and expects the replay to report the divergence rather than
// pass.
func TestReplayDetectsTampering(t *testing.T) {
	rec, err := Record(testSpec(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	tampered := *rec
	tampered.Figures = append([]FigureCapture(nil), rec.Figures...)
	fb := append([]byte(nil), rec.Figures[0].FigBytes...)
	fb[len(fb)-1] ^= 0x01
	tampered.Figures[0].FigBytes = fb
	rep, err := tampered.Replay("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical() {
		t.Fatal("tampered figure bytes replayed as identical")
	}

	tampered = *rec
	tampered.Figures = append([]FigureCapture(nil), rec.Figures...)
	rng := append([]RNGStream(nil), rec.Figures[0].RNG...)
	rng[0].Draws++
	tampered.Figures[0].RNG = rng
	rep, err = tampered.Replay("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical() {
		t.Fatal("tampered RNG witness replayed as identical")
	}

	// A decoded point changed and re-encoded: the detail names its series
	// and x, read off the what-if's figure comparer.
	tampered = *rec
	tampered.Figures = append([]FigureCapture(nil), rec.Figures...)
	fig := rec.Figures[0].Fig
	fig.Series = append([]metrics.Series(nil), fig.Series...)
	last := len(fig.Series) - 1
	s := fig.Series[last]
	s.Points = append([]metrics.Point(nil), s.Points...)
	p := &s.Points[len(s.Points)-1]
	p.Y += 0.5
	fig.Series[last] = s
	tampered.Figures[0].Fig = fig
	tampered.Figures[0].FigBytes = appendFigure(nil, rec.Figures[0].Name, fig)
	rep, err = tampered.Replay("")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("series %q at x=%g", s.Label, p.X)
	if len(rep.Divergences) != 1 || !strings.Contains(rep.Divergences[0].Detail, want) {
		t.Fatalf("tampered point: divergences %+v, want one whose detail names %s", rep.Divergences, want)
	}
}

// TestDecodeRejectsCorruption covers the loud-failure contract: flipped
// payload bytes, truncation, a wrong magic, and a future version must all
// fail to decode.
func TestDecodeRejectsCorruption(t *testing.T) {
	rec, err := Record(testSpec(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(rec)
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine recording failed to decode: %v", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(flipped); err == nil {
		t.Fatal("bit-flipped recording decoded")
	}

	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Fatal("truncated recording decoded")
	}

	badMagic := append([]byte(nil), data...)
	badMagic[0] = 'X'
	if _, err := Decode(badMagic); err == nil {
		t.Fatal("wrong magic decoded")
	}

	future := append([]byte(nil), data...)
	future[4] = Version + 1 // single-byte uvarint version
	if _, err := Decode(future); err == nil {
		t.Fatal("future version decoded")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version error does not mention version: %v", err)
	}

	// Version 1 carried spec fields version 2 dropped: it is refused, not
	// decoded, and the error says how to get a readable corpus.
	old := append([]byte(nil), data...)
	old[4] = 1
	if _, err := Decode(old); err == nil {
		t.Fatal("version 1 recording decoded")
	} else if !strings.Contains(err.Error(), "make record-corpus") {
		t.Fatalf("version 1 error does not name make record-corpus: %v", err)
	}
}

// TestDecodeRejectsForgedCount: a spec chunk with a valid CRC whose figure
// count is 2^40 must fail on the count, not size a slice by it — a 16 TiB
// allocation is a fatal runtime error, not one Decode could return.
func TestDecodeRejectsForgedCount(t *testing.T) {
	var spec []byte
	for i := 0; i < 9; i++ { // seed … node budget
		spec = recfmt.AppendVarint(spec, 0)
	}
	spec = recfmt.AppendString(spec, "")     // detector
	spec = recfmt.AppendUvarint(spec, 0)     // overload
	spec = recfmt.AppendFloat64(spec, 0)     // bandwidth scale
	spec = recfmt.AppendUvarint(spec, 1<<40) // figure count
	data := recfmt.AppendChunk(recfmt.AppendHeader(nil, Magic, Version), chunkSpec, spec)
	_, err := Decode(data)
	if err == nil || !strings.Contains(err.Error(), "count 1099511627776") {
		t.Fatalf("%d-byte forged spec: error %v does not name the count", len(data), err)
	}
}

// TestSpecRoundTrip encodes a fully populated spec and decodes it back.
func TestSpecRoundTrip(t *testing.T) {
	spec := RunSpec{
		Seed: -42, Players: 123, Supernodes: 9, Datacenters: 2,
		Shards: 3, SweepWorkers: 2,
		Horizon: 17 * time.Second, Epoch: 5 * time.Second, NodeBudget: -1,
		Detector: "timeout", Overload: true,
		BandwidthScale: 0.5,
		Figures:        []string{"fig5a", "figchurn"},
		FaultProfile:   []byte(`{"name":"x","seed":1,"duration":"30s","specs":[]}`),
	}
	got, err := decodeSpec(appendSpec(nil, spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("spec round trip:\n got %+v\nwant %+v", got, spec)
	}
}

// TestOverride covers the what-if knob surface: a valid override, the
// key=value form, unknown knobs, and invalid values.
func TestOverride(t *testing.T) {
	base, err := testSpec(1, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	over, err := base.Override("detector", "phi")
	if err != nil {
		t.Fatal(err)
	}
	if over.Detector != "phi" || base.Detector != "" {
		t.Fatalf("override mutated base or missed: base %q over %q", base.Detector, over.Detector)
	}
	if over, err = base.Override("shards=4", ""); err != nil || over.Shards != 4 {
		t.Fatalf("key=value form: %v, shards %d", err, over.Shards)
	}
	if _, err := base.Override("warp", "9"); err == nil {
		t.Fatal("unknown knob accepted")
	}
	if _, err := base.Override("detector", "psychic"); err == nil {
		t.Fatal("bad detector accepted")
	}
	if _, err := base.Override("bandwidth", "-2"); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	// A value the run would replace with its default is refused by name, not
	// diffed as if it had run.
	for _, kv := range []string{"players=0", "players=-3", "supernodes=0", "datacenters=-1",
		"horizon=0s", "horizon=-5s", "epoch=-1s"} {
		name, _, _ := strings.Cut(kv, "=")
		if _, err := base.Override(kv, ""); err == nil || !strings.Contains(err.Error(), name+"=") {
			t.Errorf("%s: err = %v, want one naming %s", kv, err, name)
		}
	}
	for _, kv := range []string{"epoch=0s", "nodebudget=-1", "players=1", "horizon=1ms"} {
		if _, err := base.Override(kv, ""); err != nil {
			t.Errorf("%s refused: %v", kv, err)
		}
	}
}

// TestBandwidthKnobRefusesUnrunnableScales: a scale that is not a positive
// finite number, or that would take a scaled capacity past MaxInt64 or under
// one bit per second, is refused by the knob's name before anything runs. A
// scale inside the range still overrides.
func TestBandwidthKnobRefusesUnrunnableScales(t *testing.T) {
	base, err := testSpec(1, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"NaN", "+Inf", "1e10", "1e-12"} {
		if _, err := base.Override("bandwidth", v); err == nil || !strings.Contains(err.Error(), "bandwidth=") {
			t.Errorf("bandwidth=%s: err = %v, want one naming the knob", v, err)
		}
	}
	over, err := base.Override("bandwidth", "0.5")
	if err != nil || over.BandwidthScale != 0.5 {
		t.Fatalf("bandwidth=0.5: err %v, scale %g", err, over.BandwidthScale)
	}
}

// TestWhatIfDetectorSwap is the counterfactual acceptance path: on a
// recorded timeout-detector scaling incident, "what if the detector had
// been phi-accrual" must produce a non-empty, ledger-reconciled diff, and
// "what if the shard count had been 4" must leave every figure identical
// (the invariance contract, proven on the incident itself).
func TestWhatIfDetectorSwap(t *testing.T) {
	spec := testSpec(9, 1)
	spec.Detector = "timeout"
	rec, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rec.WhatIf("detector", "phi")
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("detector swap produced an empty diff")
	}
	if err := d.BaseLedgers.Err(); err != nil {
		t.Fatalf("base ledgers: %v", err)
	}
	if err := d.NewLedgers.Err(); err != nil {
		t.Fatalf("what-if ledgers: %v", err)
	}
	found := false
	for _, f := range d.Figures {
		if f.Name == "figscale" && !f.Identical {
			found = true
		}
	}
	if !found {
		t.Fatal("figscale did not change under a detector swap")
	}

	d, err = rec.WhatIf("shards", "4")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range d.Figures {
		if !f.Identical {
			t.Fatalf("figure %s changed under a shard-count override: %+v", f.Name, f.Series)
		}
	}

	var text bytes.Buffer
	d.WriteText(&text)
	if !strings.Contains(text.String(), "what-if shards=4") {
		t.Fatalf("diff text missing header: %s", text.String())
	}
}

// TestWhatIfSeesHistograms: a re-run whose only difference from the recording
// is one moved histogram bucket is a difference. The worker count moves
// nothing, so the what-if must list exactly that histogram and not call the
// diff empty — otherwise an invariance what-if could not catch a divergence in
// a latency distribution.
func TestWhatIfSeesHistograms(t *testing.T) {
	spec := testSpec(5, 1)
	spec.Horizon = 6 * time.Second
	spec.Figures = []string{"fig10a"}
	rec, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	const name = "cloudfog_qoe_delivery_latency_ns"
	h, ok := rec.Final.Histograms[name]
	if !ok || h.Count == 0 {
		t.Fatalf("%s: recorded %+v, want observations", name, h)
	}
	h.Counts = append([]int64(nil), h.Counts...)
	i := 0
	for h.Counts[i] == 0 {
		i++
	}
	h.Counts[i]--
	h.Counts[i+1]++
	rec.Final.Histograms[name] = h

	d, err := rec.WhatIf("workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() || len(d.Snapshot) != 1 || d.Snapshot[0].Name != name {
		t.Fatalf("one moved bucket: empty %v, snapshot entries %+v; want exactly %s", d.Empty(), d.Snapshot, name)
	}
}

// TestSnapshotDelta checks the witness arithmetic directly.
func TestSnapshotDelta(t *testing.T) {
	rec, err := Record(testSpec(11, 2))
	if err != nil {
		t.Fatal(err)
	}
	delta := rec.Figures[0].ObsDelta
	if len(delta.Counters) == 0 {
		t.Fatal("figscale contributed no counters")
	}
	for name, v := range delta.Counters {
		if v == 0 {
			t.Fatalf("zero delta %s survived", name)
		}
		if rec.Final.Counters[name] != v {
			t.Fatalf("%s: single-figure delta %d != final %d", name, v, rec.Final.Counters[name])
		}
	}
}

// TestFirstCounterDiff: the divergence message must tell a counter one side
// never registered from one both sides hold at the same value, and blame the
// histograms only when one of them differs — in count, sum or buckets alone.
func TestFirstCounterDiff(t *testing.T) {
	hist := func(count int64) map[string]obs.HistogramSnapshot {
		return map[string]obs.HistogramSnapshot{
			"h_ns": {Bounds: []int64{10, 100}, Counts: []int64{count, 0, 0}, Sum: 5 * count, Count: count},
		}
	}
	moved := hist(4)
	moved["h_ns"] = obs.HistogramSnapshot{Bounds: []int64{10, 100}, Counts: []int64{3, 1, 0}, Sum: 20, Count: 4}
	snap := func(c map[string]int64, h map[string]obs.HistogramSnapshot) obs.Snapshot {
		return obs.Snapshot{Counters: c, Histograms: h}
	}
	cases := []struct {
		name      string
		want, got obs.Snapshot
		expect    string
	}{
		{"value differs",
			snap(map[string]int64{"a_total": 1, "b_total": 2}, nil),
			snap(map[string]int64{"a_total": 1, "b_total": 3}, nil),
			"first at b_total: recorded 2, live 3 (+1)"},
		{"recorded zero, live absent",
			snap(map[string]int64{"a_total": 1, "gone_total": 0}, hist(4)),
			snap(map[string]int64{"a_total": 1}, hist(4)),
			"first at gone_total: recorded 0, live absent"},
		{"live zero, recorded absent",
			snap(map[string]int64{"a_total": 1}, nil),
			snap(map[string]int64{"a_total": 1, "new_total": 0}, nil),
			"first at new_total: live 0, recorded absent"},
		{"only a histogram differs",
			snap(map[string]int64{"a_total": 1}, hist(4)),
			snap(map[string]int64{"a_total": 1}, hist(5)),
			"first at h_ns: histogram recorded count 4 sum 20, live count 5 sum 25"},
		{"only a bucket moved",
			snap(map[string]int64{"a_total": 1}, hist(4)),
			snap(map[string]int64{"a_total": 1}, moved),
			"first at h_ns: histogram recorded buckets [4 0 0] bounds [10 100], live buckets [3 1 0] bounds [10 100]"},
		{"histogram absent live",
			snap(map[string]int64{"a_total": 1}, hist(4)),
			snap(map[string]int64{"a_total": 1}, nil),
			"first at h_ns: histogram recorded count 4, live absent"},
		{"nothing differs",
			snap(map[string]int64{"a_total": 1}, hist(4)),
			snap(map[string]int64{"a_total": 1}, hist(4)),
			"encodings differ but decoded snapshots agree (encoding drift)"},
	}
	for _, c := range cases {
		if got := firstDiff(c.want, c.got); got != c.expect {
			t.Errorf("%s:\n got  %q\n want %q", c.name, got, c.expect)
		}
	}
}
