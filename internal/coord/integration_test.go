package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

// workerConfigEnv carries a JSON live.Config to the re-executed test binary
// acting as a worker process.
const workerConfigEnv = "CLOUDFOG_WORKER_CONFIG"

// TestHelperWorkerProcess is not a test: it is the worker subprocess body,
// entered only when the driver re-executes the test binary with the config
// env set. It runs a coordinator-registered worker until it is killed
// (SIGKILL, the abrupt-death tests) or SIGTERM'd, in which case it drains —
// every session handed off make-before-break — and exits 0 only if the
// supernode emptied before the drain deadline.
func TestHelperWorkerProcess(t *testing.T) {
	blob := os.Getenv(workerConfigEnv)
	if blob == "" {
		t.Skip("not a worker subprocess")
	}
	var cfg live.Config
	if err := json.Unmarshal([]byte(blob), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "worker config: %v\n", err)
		os.Exit(2)
	}
	w, err := StartWorker(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker start: %v\n", err)
		os.Exit(2)
	}
	defer w.Close()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM)
	<-ch
	if w.Drain() {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "worker drain deadline lapsed with sessions attached")
	os.Exit(1)
}

// spawnWorker re-executes the test binary as a worker process.
func spawnWorker(t *testing.T, cfg live.Config) *exec.Cmd {
	t.Helper()
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal worker config: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperWorkerProcess$")
	cmd.Env = append(os.Environ(), workerConfigEnv+"="+string(blob))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker: %v", err)
	}
	return cmd
}

// TestCoordinatorChurnMultiProcess is the end-to-end churn proof: a cloud
// and coordinator in this process, three worker processes, and six streaming
// players. One worker is SIGKILLed mid-stream; every affected player must
// receive a replacement ticket within the detector Bound(), and the ledger
// must reconcile after all sessions depart.
func TestCoordinatorChurnMultiProcess(t *testing.T) {
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
	coordCfg := live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), TicketKey: "integration-key",
		Detector: det, Backups: 2,
	}
	c, err := StartCoordinator(coordCfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()

	// Three worker processes spread across the plane.
	pos := map[int64][2]float64{1: {2500, 2500}, 2: {7500, 2500}, 3: {5000, 7500}}
	procs := map[int64]*exec.Cmd{}
	for id := int64(1); id <= 3; id++ {
		procs[id] = spawnWorker(t, live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			FPS: 30, X: pos[id][0], Y: pos[id][1],
			Capacity: 16, ReportEvery: 50 * time.Millisecond,
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

	// Six players, two near each worker, streaming for the rest of the
	// test. Their sessions stay open to receive re-placement pushes.
	type run struct {
		sess *Session
		done chan live.PlayerReport
	}
	ctx := context.Background()
	var runs []run
	for i := int64(0); i < 6; i++ {
		wid := i%3 + 1
		cfg := live.Config{
			Role: live.RolePlayer, ID: 500 + i, GameID: 1,
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: "integration-key",
			X:         pos[wid][0] + float64(i), Y: pos[wid][1],
		}
		s, err := OpenSession(ctx, cfg)
		if err != nil {
			t.Fatalf("player %d session: %v", cfg.ID, err)
		}
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

	// Let streams establish, then SIGKILL the worker serving player 0.
	time.Sleep(500 * time.Millisecond)
	victim := runs[0].sess.Ticket().Worker
	if victim == 0 {
		t.Fatal("player 0 was placed cloud-direct; no worker to kill")
	}
	var affected []run
	for _, r := range runs {
		if r.sess.Ticket().Worker == victim {
			affected = append(affected, r)
		}
	}
	if len(affected) == 0 {
		t.Fatal("no players on the victim worker")
	}
	procs[victim].Process.Kill()
	procs[victim].Wait()
	killedAt := time.Now()
	bound := c.Bound()

	var wg sync.WaitGroup
	for _, r := range affected {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			old := r.sess.Ticket()
			select {
			case fresh, ok := <-r.sess.Updates():
				if !ok {
					t.Errorf("player %d: session closed before re-placement", old.Player)
					return
				}
				elapsed := time.Since(killedAt)
				if elapsed > bound {
					t.Errorf("player %d re-placed after %v, beyond Bound %v", old.Player, elapsed, bound)
				}
				if fresh.Worker == victim {
					t.Errorf("player %d re-ticketed onto the dead worker %d", old.Player, victim)
				}
				if fresh.Epoch <= old.Epoch {
					t.Errorf("player %d replacement epoch %d did not pass %d", old.Player, fresh.Epoch, old.Epoch)
				}
				if !VerifyTicket([]byte("integration-key"), fresh) {
					t.Errorf("player %d replacement ticket fails verification", old.Player)
				}
			case <-time.After(bound + time.Second):
				t.Errorf("player %d: no replacement ticket within Bound %v (+1s grace)", old.Player, bound)
			}
		}(r)
	}
	wg.Wait()

	// Drain the player runs, then depart every session and reconcile.
	for _, r := range runs {
		rep := <-r.done
		if rep.Segments == 0 {
			t.Error("a player streamed zero segments")
		}
	}
	closeAll()
	deadline = time.Now().Add(5 * time.Second)
	for {
		l := c.Ledger()
		if l.ActiveOriginal+l.ActiveReplaced == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never departed: %+v", l)
		}
		time.Sleep(20 * time.Millisecond)
	}
	l := c.Ledger()
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced: %+v", l)
	}
	if l.Placements != 6 || l.Departed != 6 {
		t.Fatalf("ledger placements/departed %d/%d, want 6/6: %+v", l.Placements, l.Departed, l)
	}
	if int(l.Replacements) < len(affected) {
		t.Fatalf("replacements %d < affected players %d", l.Replacements, len(affected))
	}
	if l.WorkersLost != 1 {
		t.Fatalf("WorkersLost %d, want 1 (the SIGKILLed worker)", l.WorkersLost)
	}
}

// TestUDPStreamWorkerRegistersOverTCP pins that Config.Transport selects the
// supernode→player stream and nothing else: a worker streaming over UDP
// still registers with a default coordinator, because every control link is
// TCP. The placed player's ticket names the UDP stream and segments flow.
func TestUDPStreamWorkerRegistersOverTCP(t *testing.T) {
	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	defer cloud.Close()
	c, err := StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(),
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	w, err := StartWorker(live.Config{
		Role: live.RoleSupernode, ID: 1, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), CoordAddr: c.Addr(), Transport: live.TransportUDP,
		FPS: 30, X: 5000, Y: 5000, Capacity: 4, ReportEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	defer w.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersAlive() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the UDP-stream worker never registered with the coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}

	s, err := OpenSession(context.Background(), live.Config{
		Role: live.RolePlayer, ID: 700, GameID: 1,
		CloudAddr: cloud.Addr(), CoordAddr: c.Addr(), X: 5000, Y: 5000,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	if tk := s.Ticket(); tk.Worker != 1 || tk.Transport != proto.StreamUDP {
		t.Fatalf("ticket names worker %d over transport %d, want worker 1 over StreamUDP", tk.Worker, tk.Transport)
	}
	rep, err := s.Run(500 * time.Millisecond)
	if err != nil {
		t.Fatalf("player run: %v", err)
	}
	if rep.Segments == 0 {
		t.Fatal("no segments arrived over the UDP stream")
	}
	s.Close()

	deadline = time.Now().Add(5 * time.Second)
	for c.Ledger().Departed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("session never departed: %+v", c.Ledger())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if l := c.Ledger(); !l.Balanced() || l.Placements != 1 {
		t.Fatalf("ledger %+v, want 1 placement and balanced", l)
	}
}
