package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/live"
)

// Env plumbing for the coordinator subprocess: its live.Config and the path
// it writes the ledger reconciliation Report to on SIGTERM.
const (
	coordConfigEnv = "CLOUDFOG_COORD_CONFIG"
	coordLedgerEnv = "CLOUDFOG_COORD_LEDGER"
)

// coordAddrPrefix tags the line the coordinator subprocess prints so the
// parent can find the ephemeral listen address in the test binary's output.
const coordAddrPrefix = "COORD_ADDR "

// TestHelperCoordinatorProcess is not a test: it is the coordinator
// subprocess body for the partition test. It serves until SIGTERM, then
// writes the ledger reconciliation JSON and exits.
func TestHelperCoordinatorProcess(t *testing.T) {
	blob := os.Getenv(coordConfigEnv)
	if blob == "" {
		t.Skip("not a coordinator subprocess")
	}
	var cfg live.Config
	if err := json.Unmarshal([]byte(blob), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "coordinator config: %v\n", err)
		os.Exit(2)
	}
	c, err := StartCoordinator(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordinator start: %v\n", err)
		os.Exit(2)
	}
	defer c.Close()
	fmt.Println(coordAddrPrefix + c.Addr())
	os.Stdout.Sync()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM)
	<-ch
	if path := os.Getenv(coordLedgerEnv); path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledger file: %v\n", err)
			os.Exit(2)
		}
		if err := c.WriteReport(f); err != nil {
			fmt.Fprintf(os.Stderr, "ledger write: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}
	os.Exit(0)
}

// spawnCoordinator re-executes the test binary as a coordinator process and
// returns the command plus the listen address scraped from its stdout.
func spawnCoordinator(t *testing.T, cfg live.Config, ledgerPath string) (*exec.Cmd, string) {
	t.Helper()
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal coordinator config: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperCoordinatorProcess$")
	cmd.Env = append(os.Environ(),
		coordConfigEnv+"="+string(blob),
		coordLedgerEnv+"="+ledgerPath,
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("coordinator stdout: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn coordinator: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, coordAddrPrefix) {
				addrCh <- strings.TrimPrefix(line, coordAddrPrefix)
				break
			}
		}
		// Keep draining so the subprocess never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("coordinator subprocess never printed its address")
		return nil, ""
	}
}

// TestCoordinatorPartitionMultiProcess is the control-plane partition proof:
// the coordinator runs as its own process and is SIGSTOP'd mid-stream. Every
// worker must drop into safe mode on TSync silence, no player may lose its
// session (streams ride out the partition untouched), and after SIGCONT the
// workers must leave safe mode and the coordinator's extended ledger —
// including the pause-recovery Rebase — must reconcile.
func TestCoordinatorPartitionMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}

	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0",
		Tick: 20 * time.Millisecond, FPS: 10,
	})
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	defer cloud.Close()

	det := health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond}
	ledgerPath := t.TempDir() + "/ledger.json"
	coordProc, coordAddr := spawnCoordinator(t, live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), TicketKey: "partition-key",
		Detector: det, Backups: 2, LeaseTTL: time.Second,
	}, ledgerPath)
	defer func() {
		coordProc.Process.Kill()
		coordProc.Wait()
	}()

	// Two in-process workers, so the test can watch their safe-mode state
	// directly while the coordinator process is frozen.
	pos := map[int64][2]float64{1: {2500, 2500}, 2: {7500, 2500}}
	var workers []*Worker
	for id := int64(1); id <= 2; id++ {
		w, err := StartWorker(live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: cloud.Addr(), CoordAddr: coordAddr,
			TicketKey: "partition-key",
			FPS:       30, X: pos[id][0], Y: pos[id][1],
			Capacity: 16, ReportEvery: 50 * time.Millisecond,
			Detector: det,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
		defer w.Close()
		workers = append(workers, w)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, w := range workers {
		for {
			if _, synced := w.Skew(); synced {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never saw a TSync beacon", w.ID())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	type run struct {
		sess *Session
		done chan live.PlayerReport
	}
	var runs []run
	for i := int64(0); i < 3; i++ {
		wid := i%2 + 1
		cfg := live.Config{
			Role: live.RolePlayer, ID: 700 + i, GameID: 1,
			CloudAddr: cloud.Addr(), CoordAddr: coordAddr,
			TicketKey: "partition-key",
			X:         pos[wid][0] + float64(i), Y: pos[wid][1],
		}
		s, err := OpenSession(context.Background(), cfg)
		if err != nil {
			t.Fatalf("player %d session: %v", cfg.ID, err)
		}
		defer s.Close()
		r := run{sess: s, done: make(chan live.PlayerReport, 1)}
		go func() {
			rep, err := s.Run(4 * time.Second)
			if err != nil {
				t.Errorf("player run: %v", err)
			}
			r.done <- rep
		}()
		runs = append(runs, r)
	}

	// Streams established; record who serves whom, then freeze the
	// coordinator — a full control-plane partition without a death.
	time.Sleep(500 * time.Millisecond)
	before := make([]int64, len(runs))
	for i, r := range runs {
		before[i] = r.sess.Ticket().Worker
	}
	if err := coordProc.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP coordinator: %v", err)
	}
	stopped := time.Now()

	// Every worker's phi detector must fire on TSync silence.
	deadline = time.Now().Add(3 * time.Second)
	for _, w := range workers {
		for !w.SafeMode() {
			if time.Now().After(deadline) {
				coordProc.Process.Signal(syscall.SIGCONT)
				t.Fatalf("worker %d never entered safe mode during the partition", w.ID())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Hold the partition a little past detection, then heal it.
	time.Sleep(200 * time.Millisecond)
	if err := coordProc.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatalf("SIGCONT coordinator: %v", err)
	}
	t.Logf("partition held %v", time.Since(stopped))

	deadline = time.Now().Add(3 * time.Second)
	for _, w := range workers {
		for w.SafeMode() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d stuck in safe mode after the partition healed", w.ID())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// No player may have lost its session: every run finishes with zero
	// visible interruptions, still served by its pre-partition worker.
	for i, r := range runs {
		rep := <-r.done
		if rep.Segments == 0 {
			t.Errorf("player %d streamed zero segments", 700+int64(i))
		}
		if rep.Failovers != 0 {
			t.Errorf("player %d saw %d stream interruptions across the partition", 700+int64(i), rep.Failovers)
		}
		if after := r.sess.Ticket().Worker; after != before[i] {
			t.Errorf("player %d moved from worker %d to %d during the partition", 700+int64(i), before[i], after)
		}
		r.sess.Close()
	}

	// Let the departs land, then stop the coordinator and read its ledger.
	time.Sleep(time.Second)
	if err := coordProc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM coordinator: %v", err)
	}
	if err := coordProc.Wait(); err != nil {
		t.Fatalf("coordinator exit: %v", err)
	}
	blob, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("ledger report: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("ledger report decode: %v", err)
	}
	l := rep.Ledger
	t.Logf("ledger: %+v", l)
	if !rep.Balanced {
		t.Fatalf("ledger does not reconcile after the partition: %+v", l)
	}
	if l.Rebases == 0 {
		t.Errorf("coordinator never rebased after the pause: %+v", l)
	}
	if l.Expired != 0 {
		t.Errorf("%d sessions expired across the partition; leases must survive a coordinator pause", l.Expired)
	}
	if l.ActiveOriginal+l.ActiveReplaced != 0 || l.Placements != 3 || l.Departed != 3 {
		t.Errorf("session accounting off: %+v", l)
	}
}

// TestCoordinatorDrainMultiProcess is the graceful-distress proof: a worker
// process is SIGTERM'd mid-stream and must hand off every session it serves
// with zero visible interruptions — replacement tickets pushed within the
// detector Bound(), make-before-break handoffs on the players, the drained
// worker exiting 0 — while the ledger's drain accounting reconciles.
func TestCoordinatorDrainMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}

	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0",
		Tick: 20 * time.Millisecond, FPS: 10,
	})
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	defer cloud.Close()

	det := health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond}
	c, err := StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), TicketKey: "drain-key",
		Detector: det, Backups: 2, LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()

	pos := map[int64][2]float64{1: {2500, 2500}, 2: {7500, 2500}, 3: {5000, 7500}}
	procs := map[int64]*exec.Cmd{}
	for id := int64(1); id <= 3; id++ {
		procs[id] = spawnWorker(t, live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: "drain-key",
			FPS:       30, X: pos[id][0], Y: pos[id][1],
			Capacity: 16, ReportEvery: 50 * time.Millisecond,
			Detector: det, DrainTimeout: 5 * time.Second,
		})
	}
	defer func() {
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for c.WorkersAlive() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 workers registered", c.WorkersAlive())
		}
		time.Sleep(20 * time.Millisecond)
	}

	type run struct {
		sess *Session
		done chan live.PlayerReport
	}
	var runs []run
	for i := int64(0); i < 6; i++ {
		wid := i%3 + 1
		cfg := live.Config{
			Role: live.RolePlayer, ID: 800 + i, GameID: 1,
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: "drain-key",
			X:         pos[wid][0] + float64(i), Y: pos[wid][1],
		}
		s, err := OpenSession(context.Background(), cfg)
		if err != nil {
			t.Fatalf("player %d session: %v", cfg.ID, err)
		}
		defer s.Close()
		r := run{sess: s, done: make(chan live.PlayerReport, 1)}
		go func() {
			rep, err := s.Run(4 * time.Second)
			if err != nil {
				t.Errorf("player run: %v", err)
			}
			r.done <- rep
		}()
		runs = append(runs, r)
	}
	closeAll := func() {
		for _, r := range runs {
			r.sess.Close()
		}
	}
	defer closeAll()

	// Streams up; SIGTERM the worker serving player 0 and hold it to its
	// drain contract.
	time.Sleep(time.Second)
	victim := runs[0].sess.Ticket().Worker
	if victim == 0 {
		t.Fatal("player 0 was placed cloud-direct; no worker to drain")
	}
	var affected []run
	for _, r := range runs {
		if r.sess.Ticket().Worker == victim {
			affected = append(affected, r)
		}
	}
	bound := c.Bound()
	if err := procs[victim].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM worker %d: %v", victim, err)
	}
	termAt := time.Now()

	// Every affected player must receive a replacement ticket naming a
	// different worker within the detector Bound().
	var wg sync.WaitGroup
	for _, r := range affected {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			old := r.sess.Ticket()
			timeout := time.After(bound + time.Second)
			// Renewal tickets (same worker, half-life cadence) share the
			// updates channel; skip any queued before the drain ticket.
			for {
				select {
				case fresh, ok := <-r.sess.Updates():
					if !ok {
						t.Errorf("player %d: session closed during the drain", old.Player)
						return
					}
					if fresh.Epoch <= old.Epoch || fresh.Worker == victim {
						continue
					}
					if elapsed := time.Since(termAt); elapsed > bound {
						t.Errorf("player %d drain ticket after %v, beyond Bound %v", old.Player, elapsed, bound)
					}
					return
				case <-timeout:
					t.Errorf("player %d: no drain ticket within Bound %v (+1s grace)", old.Player, bound)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// The drained worker exits cleanly — exit 0 is its own assertion that
	// the supernode emptied before the drain deadline.
	if err := procs[victim].Wait(); err != nil {
		t.Errorf("drained worker %d exit: %v", victim, err)
	}
	t.Logf("worker %d drained and exited in %v (bound %v)", victim, time.Since(termAt), bound)
	delete(procs, victim)

	// Zero visible interruptions anywhere; the affected sessions moved via
	// make-before-break handoffs.
	var handoffs int64
	for i, r := range runs {
		rep := <-r.done
		if rep.Segments == 0 {
			t.Errorf("player %d streamed zero segments", 800+int64(i))
		}
		if rep.Failovers != 0 {
			t.Errorf("player %d saw %d stream interruptions during a drain", 800+int64(i), rep.Failovers)
		}
		handoffs += rep.Handoffs
	}
	if int(handoffs) < len(affected) {
		t.Errorf("only %d handoffs for %d drained sessions", handoffs, len(affected))
	}

	closeAll()
	deadline = time.Now().Add(5 * time.Second)
	for {
		l := c.Ledger()
		if l.ActiveOriginal+l.ActiveReplaced == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never departed: %+v", c.Ledger())
		}
		time.Sleep(20 * time.Millisecond)
	}
	l := c.Ledger()
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced after the drain: %+v", l)
	}
	if l.DrainWorkers == 0 || int(l.DrainSessions) < len(affected) {
		t.Errorf("drain accounting %d workers / %d sessions, want >=1 / >=%d: %+v",
			l.DrainWorkers, l.DrainSessions, len(affected), l)
	}
	if l.Expired != 0 {
		t.Errorf("%d sessions expired during the drain: %+v", l.Expired, l)
	}
}
