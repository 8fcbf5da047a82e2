// Package cloudfog is a from-scratch Go reproduction of "CloudFog: Towards
// High Quality of Experience in Cloud Gaming" (Lin & Shen, ICPP 2015).
//
// CloudFog inserts a fog of supernodes between a game cloud and thin
// clients: the cloud computes authoritative game state and sends small
// update messages to supernodes, which render, encode and stream per-player
// game video to nearby players. The repository implements the fog-assisted
// infrastructure with its supernode assignment protocol, the
// receiver-driven encoding rate adaptation, the deadline-driven sender
// buffer scheduling, and the economic model — plus the substrates the
// paper's evaluation needs: a deterministic discrete-event simulator, a
// synthetic PlanetLab-like latency landscape, a churn workload generator,
// and the Cloud and EdgeCloud baselines. The paper's PlanetLab panels run on
// the simulator at the PlanetLab run's configuration.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and bench_test.go for the per-figure
// regeneration benchmarks.
package cloudfog
