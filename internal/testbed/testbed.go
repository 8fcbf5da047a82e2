// Package testbed stands in for the paper's PlanetLab deployment: every
// node runs a real TCP server on the loopback interface, and wide-area
// latency is injected per node pair from the synthetic trace model. Probes
// are genuine TCP round trips — dial, write, read — so connection setup,
// kernel scheduling and socket behavior are real; only the propagation
// delay is emulated.
//
// The Cluster implements trace.Source with measured (not modeled)
// latencies, so the same CloudFog assignment protocol and experiment
// harness that run on the simulator run unchanged against live sockets —
// the paper's PeerSim/PlanetLab split.
package testbed

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/trace"
)

// Cluster is a set of loopback-TCP nodes with injected pairwise delays.
type Cluster struct {
	model trace.Model

	mu    sync.Mutex
	nodes map[trace.NodeID]*node
	cache map[[2]trace.NodeID]time.Duration

	closed   bool
	wg       sync.WaitGroup
	probes   int64
	fallback int64
}

type node struct {
	ep   trace.Endpoint
	ln   net.Listener
	addr string
}

// Start launches one TCP server per endpoint. Callers must Close the
// cluster to release the listeners.
func Start(model trace.Model, endpoints []trace.Endpoint) (*Cluster, error) {
	c := &Cluster{
		model: model,
		nodes: make(map[trace.NodeID]*node, len(endpoints)),
		cache: make(map[[2]trace.NodeID]time.Duration),
	}
	for _, ep := range endpoints {
		if _, dup := c.nodes[ep.ID]; dup {
			c.Close()
			return nil, fmt.Errorf("testbed: duplicate endpoint id %d", ep.ID)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("testbed: listen: %w", err)
		}
		n := &node{ep: ep, ln: ln, addr: ln.Addr().String()}
		c.nodes[ep.ID] = n
		c.wg.Add(1)
		go c.serve(n)
	}
	return c, nil
}

// Probes returns how many TCP probes have completed.
func (c *Cluster) Probes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probes
}

// serve answers probe requests: the client sends its 8-byte node ID, the
// server sleeps the injected round-trip delay for the pair and echoes one
// byte. One probe per connection, mirroring a fresh measurement.
func (c *Cluster) serve(n *node) {
	defer c.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func(conn net.Conn) {
			defer conn.Close()
			var buf [8]byte
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := readFull(conn, buf[:]); err != nil {
				return
			}
			peer := trace.NodeID(binary.BigEndian.Uint64(buf[:]))
			c.mu.Lock()
			peerNode, ok := c.nodes[peer]
			c.mu.Unlock()
			if !ok {
				return
			}
			time.Sleep(c.model.RTT(peerNode.ep, n.ep))
			conn.Write(buf[:1])
		}(conn)
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Probe performs one real TCP round trip from node `from` to node `to` and
// returns the measured one-way latency (half the round trip).
func (c *Cluster) Probe(from, to trace.NodeID) (time.Duration, error) {
	c.mu.Lock()
	toNode, ok := c.nodes[to]
	_, fromOK := c.nodes[from]
	c.mu.Unlock()
	if !ok || !fromOK {
		return 0, fmt.Errorf("testbed: unknown endpoint %d or %d", from, to)
	}
	conn, err := net.DialTimeout("tcp", toNode.addr, 5*time.Second)
	if err != nil {
		return 0, fmt.Errorf("testbed: dial %d: %w", to, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(from))
	start := time.Now()
	if _, err := conn.Write(buf[:]); err != nil {
		return 0, err
	}
	if _, err := readFull(conn, buf[:1]); err != nil {
		return 0, err
	}
	rtt := time.Since(start)
	c.mu.Lock()
	c.probes++
	c.mu.Unlock()
	return rtt / 2, nil
}

// OneWay implements trace.Source with measured latencies. Each pair is
// probed once and cached (a node keeps its measurement, as the assignment
// protocol does); a failed probe falls back to the underlying model so an
// experiment never derails mid-run.
func (c *Cluster) OneWay(a, b trace.Endpoint) time.Duration {
	if a.ID == b.ID {
		return c.model.Base
	}
	key := pairKey(a.ID, b.ID)
	c.mu.Lock()
	if v, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()

	v, err := c.Probe(a.ID, b.ID)
	if err != nil {
		c.mu.Lock()
		c.fallback++
		c.mu.Unlock()
		v = c.model.OneWay(a, b)
	}
	c.mu.Lock()
	c.cache[key] = v
	c.mu.Unlock()
	return v
}

// Fallbacks returns how many OneWay calls fell back to the model because a
// probe failed.
func (c *Cluster) Fallbacks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fallback
}

func pairKey(a, b trace.NodeID) [2]trace.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]trace.NodeID{a, b}
}

// Prewarm measures the given endpoint pairs concurrently (up to `parallel`
// in flight) so that subsequent synchronous OneWay calls hit the cache.
// Real probes sleep their injected delays, so warming in parallel is what
// makes thousand-node assignments tractable.
func (c *Cluster) Prewarm(pairs [][2]trace.Endpoint, parallel int) {
	if parallel < 1 {
		parallel = 1
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, pr := range pairs {
		key := pairKey(pr[0].ID, pr[1].ID)
		c.mu.Lock()
		_, done := c.cache[key]
		c.mu.Unlock()
		if done || pr[0].ID == pr[1].ID {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(a, b trace.Endpoint) {
			defer wg.Done()
			defer func() { <-sem }()
			c.OneWay(a, b)
		}(pr[0], pr[1])
	}
	wg.Wait()
}

// Close shuts every listener down and waits for the accept loops to exit.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		n.ln.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

var _ trace.Source = (*Cluster)(nil)
