package coord

import (
	"net"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

const linkKey = "control-link-key"

// linkCoordinator starts a coordinator with leases on and one registered
// worker, so any placement it is asked for succeeds.
func linkCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c, err := StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0", TicketKey: linkKey, LeaseTTL: time.Minute,
		Detector: health.DetectorConfig{Mode: health.ModeTimeout, Interval: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w := dialControl(t, c)
	reg := proto.Register{Worker: 1, Capacity: 16, X: 100, Y: 100, Addr: "127.0.0.1:9000"}
	if err := proto.WriteFrame(w, proto.TRegister, proto.MarshalRegister(reg)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); c.WorkersAlive() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never registered")
		}
	}
	return c
}

func dialControl(t *testing.T, c *Coordinator) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// ask sends one frame on a player control link and returns the ticket the
// coordinator answers with.
func ask(t *testing.T, conn net.Conn, typ proto.MsgType, payload []byte) proto.Ticket {
	t.Helper()
	if err := proto.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, reply, err := proto.ReadFrame(conn)
	if err != nil || got != proto.TTicket {
		t.Fatalf("reply type %d: %v", got, err)
	}
	tk, err := proto.UnmarshalTicket(reply)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func place(id int64) []byte {
	return proto.AppendPlace(nil, proto.Place{Player: id, GameID: 1, X: 100, Y: 100})
}

// TestControlLinkRenewsOnlyItsPlayer: a renewal names a player, and only the
// link that placed that player may renew it. A fresh link asking for player
// 7's lease gets the empty-Addr answer an unknown session gets, not a signed
// ticket a worker's join gate would accept.
func TestControlLinkRenewsOnlyItsPlayer(t *testing.T) {
	c := linkCoordinator(t)
	owner := dialControl(t, c)
	if tk := ask(t, owner, proto.TPlace, place(7)); tk.Addr == "" {
		t.Fatal("player 7 was not placed")
	}
	stranger := dialControl(t, c)
	if tk := ask(t, stranger, proto.TTicket, proto.AppendRenew(nil, proto.Renew{Player: 7, Epoch: 1})); tk.Addr != "" {
		t.Fatalf("a link that placed no one renewed player 7: %+v, verifies %v", tk, VerifyTicket([]byte(linkKey), tk))
	}
	tk := ask(t, owner, proto.TTicket, proto.AppendRenew(nil, proto.Renew{Player: 7, Epoch: 1}))
	if tk.Addr == "" || tk.Epoch != 2 || !VerifyTicket([]byte(linkKey), tk) {
		t.Fatalf("the placing link's renewal: %+v", tk)
	}
	if l := c.Ledger(); l.Renewals != 1 {
		t.Fatalf("renewals %d, want 1: %+v", l.Renewals, l)
	}
}

// TestControlLinkPlacesOnePlayer: a control link speaks for one player, and
// closing it is that player's departure. A second player placed on the same
// link would outlive the link in the ledger, so it is refused, and the close
// leaves no session behind.
func TestControlLinkPlacesOnePlayer(t *testing.T) {
	c := linkCoordinator(t)
	conn := dialControl(t, c)
	if tk := ask(t, conn, proto.TPlace, place(7)); tk.Addr == "" {
		t.Fatal("player 7 was not placed")
	}
	if tk := ask(t, conn, proto.TPlace, place(8)); tk.Addr != "" {
		t.Fatalf("player 8 placed on player 7's link: %+v", tk)
	}
	conn.Close()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		l := c.Ledger()
		if l.Departed == 1 {
			if l.Placements != 1 || l.ActiveOriginal+l.ActiveReplaced != 0 || !l.Balanced() {
				t.Fatalf("ledger after the link closed: %+v", l)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the link's player never departed: %+v", l)
		}
	}
}
