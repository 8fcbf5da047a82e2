package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// modelJSON is the stable serialized form of a Model: durations in
// nanoseconds, field names frozen independently of the Go struct.
type modelJSON struct {
	Seed                    int64   `json:"seed"`
	BaseNs                  int64   `json:"base_ns"`
	PerKmNs                 int64   `json:"per_km_ns"`
	AccessMedianNs          int64   `json:"access_median_ns"`
	AccessSigma             float64 `json:"access_sigma"`
	SupernodeAccessMedianNs int64   `json:"supernode_access_median_ns"`
	SupernodeAccessSigma    float64 `json:"supernode_access_sigma"`
	ProvisionedAccessNs     int64   `json:"provisioned_access_ns"`
	NoiseMedianNs           int64   `json:"noise_median_ns"`
	NoiseSigma              float64 `json:"noise_sigma"`
	SupernodeBackboneFactor float64 `json:"supernode_backbone_factor"`
}

// Save writes the model's parameters as JSON, so a calibrated latency
// landscape can be committed alongside experiment results and reloaded
// bit-for-bit (all draws are pure functions of these parameters).
func (m Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelJSON{
		Seed:                    m.Seed,
		BaseNs:                  int64(m.Base),
		PerKmNs:                 int64(m.PerKm),
		AccessMedianNs:          int64(m.AccessMedian),
		AccessSigma:             m.AccessSigma,
		SupernodeAccessMedianNs: int64(m.SupernodeAccessMedian),
		SupernodeAccessSigma:    m.SupernodeAccessSigma,
		ProvisionedAccessNs:     int64(m.ProvisionedAccess),
		NoiseMedianNs:           int64(m.NoiseMedian),
		NoiseSigma:              m.NoiseSigma,
		SupernodeBackboneFactor: m.SupernodeBackboneFactor,
	})
}

// Load reads a model saved with Save.
func Load(r io.Reader) (Model, error) {
	var j modelJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Model{}, fmt.Errorf("trace: load model: %w", err)
	}
	m := Model{
		Seed:                    j.Seed,
		Base:                    time.Duration(j.BaseNs),
		PerKm:                   time.Duration(j.PerKmNs),
		AccessMedian:            time.Duration(j.AccessMedianNs),
		AccessSigma:             j.AccessSigma,
		SupernodeAccessMedian:   time.Duration(j.SupernodeAccessMedianNs),
		SupernodeAccessSigma:    j.SupernodeAccessSigma,
		ProvisionedAccess:       time.Duration(j.ProvisionedAccessNs),
		NoiseMedian:             time.Duration(j.NoiseMedianNs),
		NoiseSigma:              j.NoiseSigma,
		SupernodeBackboneFactor: j.SupernodeBackboneFactor,
	}
	if m.Base < 0 || m.PerKm < 0 || m.AccessMedian < 0 || m.SupernodeAccessMedian < 0 ||
		m.ProvisionedAccess < 0 || m.NoiseMedian < 0 || m.AccessSigma < 0 || m.NoiseSigma < 0 {
		return Model{}, fmt.Errorf("trace: load model: negative parameters")
	}
	return m, nil
}
