// Coordinator control-plane messages: worker registration and occupancy
// reports flowing up to the coordinator, and placement requests / signed
// session tickets flowing between players and the coordinator. All four ride
// the same pooled Append* encode-in-place path as the data-plane messages.
package proto

import "fmt"

// Stream transport codes carried by Register.Transport, so a ticket can tell
// the player how to dial the worker it names.
const (
	// StreamTCP marks a worker serving players over reliable TCP streams.
	StreamTCP uint8 = 0
	// StreamUDP marks a worker serving players over datagrams.
	StreamUDP uint8 = 1
)

// maxStr bounds the length-prefixed strings in control-plane messages (the
// prefix is a u16, but addresses should never get anywhere near it).
const maxStr = 1 << 12

// appendStr writes a u16 length prefix plus the string bytes.
func appendStr(dst []byte, s string) []byte {
	if len(s) > maxStr {
		s = s[:maxStr]
	}
	dst = append(dst, byte(len(s)>>8), byte(len(s)))
	return append(dst, s...)
}

// appendBytes writes a u16 length prefix plus the raw bytes — the byte-slice
// twin of appendStr.
func appendBytes(dst, p []byte) []byte {
	if len(p) > maxStr {
		p = p[:maxStr]
	}
	dst = append(dst, byte(len(p)>>8), byte(len(p)))
	return append(dst, p...)
}

// rbytes reads a u16-length-prefixed byte slice (nil when empty). The result
// is freshly allocated and owned by the caller.
func (b *buffer) rbytes() []byte {
	s := b.rstr()
	if s == "" {
		return nil
	}
	return []byte(s)
}

// rstr reads a u16-length-prefixed string.
func (b *buffer) rstr() string {
	if !b.need(2) {
		return ""
	}
	n := int(b.b[b.off])<<8 | int(b.b[b.off+1])
	b.off += 2
	if n > maxStr {
		b.err = fmt.Errorf("proto: string of %d bytes exceeds limit", n)
		return ""
	}
	if !b.need(n) {
		return ""
	}
	s := string(b.b[b.off : b.off+n])
	b.off += n
	return s
}

// Register announces a supernode worker to the coordinator.
type Register struct {
	Worker int64
	// Capacity is the worker's player-slot budget; Load is its occupancy at
	// registration time (usually zero, nonzero after a reconnect).
	Capacity int32
	Load     int32
	// X, Y locate the worker for the coordinator's spatial shortlist.
	X, Y float64
	// Transport is the stream transport the worker serves players on
	// (StreamTCP or StreamUDP); tickets echo it to the placed player.
	Transport uint8
	// Addr is the worker's player-facing stream address.
	Addr string
	// Sessions lists the players the worker is currently serving. Empty on
	// a first registration; on a re-registration after a coordinator
	// partition it is the worker's ground truth, and the coordinator
	// reconciles its ledger against it instead of trusting stale state.
	Sessions []int64
}

// MarshalRegister encodes a worker registration.
func MarshalRegister(r Register) []byte { return AppendRegister(nil, r) }

// AppendRegister marshals a worker registration into dst and returns the
// extended slice — the allocation-free form of MarshalRegister.
func AppendRegister(dst []byte, r Register) []byte {
	dst = appendI64(dst, r.Worker)
	dst = appendU32(dst, uint32(r.Capacity))
	dst = appendU32(dst, uint32(r.Load))
	dst = appendF64(dst, r.X)
	dst = appendF64(dst, r.Y)
	dst = appendU8(dst, r.Transport)
	dst = appendStr(dst, r.Addr)
	dst = appendU32(dst, uint32(len(r.Sessions)))
	for _, s := range r.Sessions {
		dst = appendI64(dst, s)
	}
	return dst
}

// UnmarshalRegister decodes a worker registration.
func UnmarshalRegister(p []byte) (Register, error) {
	b := buffer{b: p}
	var r Register
	r.Worker = b.ri64()
	r.Capacity = int32(b.ru32())
	r.Load = int32(b.ru32())
	r.X = b.rf64()
	r.Y = b.rf64()
	r.Transport = b.ru8()
	r.Addr = b.rstr()
	n := int(b.ru32())
	if b.err != nil {
		return r, b.err
	}
	if n*8 > len(p) {
		return r, fmt.Errorf("proto: register session count exceeds payload")
	}
	if n > 0 {
		r.Sessions = make([]int64, 0, n)
		for i := 0; i < n; i++ {
			r.Sessions = append(r.Sessions, b.ri64())
		}
	}
	return r, b.finish()
}

// Report is a worker's periodic capacity/occupancy beacon: the coordinator
// feeds the arrival gaps to its failure detector and the load ratio to the
// overload ladder.
type Report struct {
	Worker   int64
	Seq      uint64
	Load     int32
	Capacity int32
	// Level is the worker's local overload-ladder state
	// (health.OverloadState: 0 Normal … 4 Migrating). The coordinator
	// starts a proactive drain at Shedding or above instead of waiting for
	// the worker to die.
	Level uint8
	// Draining is nonzero when the worker wants every session moved off it
	// (a SIGTERM'd worker handing off before exit).
	Draining uint8
}

// AppendReport marshals a worker report into dst and returns the extended
// slice.
func AppendReport(dst []byte, r Report) []byte {
	dst = appendI64(dst, r.Worker)
	dst = appendU64(dst, r.Seq)
	dst = appendU32(dst, uint32(r.Load))
	dst = appendU32(dst, uint32(r.Capacity))
	dst = appendU8(dst, r.Level)
	return appendU8(dst, r.Draining)
}

// UnmarshalReport decodes a worker report.
func UnmarshalReport(p []byte) (Report, error) {
	b := buffer{b: p}
	var r Report
	r.Worker = b.ri64()
	r.Seq = b.ru64()
	r.Load = int32(b.ru32())
	r.Capacity = int32(b.ru32())
	r.Level = b.ru8()
	r.Draining = b.ru8()
	return r, b.finish()
}

// Place asks the coordinator to place a joining player near (X, Y).
type Place struct {
	Player int64
	GameID int32
	X, Y   float64
}

// AppendPlace marshals a placement request into dst and returns the extended
// slice.
func AppendPlace(dst []byte, p Place) []byte {
	dst = appendI64(dst, p.Player)
	dst = appendU32(dst, uint32(p.GameID))
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

// UnmarshalPlace decodes a placement request.
func UnmarshalPlace(p []byte) (Place, error) {
	b := buffer{b: p}
	var pl Place
	pl.Player = b.ri64()
	pl.GameID = int32(b.ru32())
	pl.X = b.rf64()
	pl.Y = b.rf64()
	return pl, b.finish()
}

// Ticket is the coordinator's placement answer: the serving worker's stream
// address plus the backup ring, signed so a worker (or the cloud's direct
// path) can refuse a forged or stale placement. Epoch increases with every
// ticket the coordinator issues, so a re-placement always supersedes the
// ticket it replaces.
type Ticket struct {
	Player int64
	// Worker is the serving worker's ID; zero means the ticket points the
	// player straight at the cloud's direct stream (no worker would admit).
	Worker int64
	Epoch  uint64
	// Issued is the coordinator's clock at issue time (offset nanoseconds).
	Issued int64
	// Expiry is the lease deadline on the coordinator's clock (offset
	// nanoseconds): the ticket is valid while now < Expiry. Zero means the
	// ticket never expires (deployments without leases). Signed into the
	// HMAC body so a player cannot stretch its own lease.
	Expiry int64
	// Transport echoes the worker's stream transport (StreamTCP/StreamUDP).
	Transport uint8
	// Addr is the serving stream address; Backups is the failover ring, in
	// preference order.
	Addr    string
	Backups []string
	// Sig authenticates every preceding field (HMAC-SHA256 under the
	// deployment's shared ticket key; empty on unsigned deployments).
	Sig []byte
}

// MarshalTicket encodes a session ticket.
func MarshalTicket(t Ticket) []byte { return AppendTicket(nil, t) }

// AppendTicket marshals a session ticket into dst and returns the extended
// slice — the allocation-free form of MarshalTicket.
func AppendTicket(dst []byte, t Ticket) []byte {
	dst = AppendTicketBody(dst, t)
	dst = append(dst, byte(len(t.Sig)>>8), byte(len(t.Sig)))
	return append(dst, t.Sig...)
}

// AppendTicketBody marshals every ticket field except the signature — the
// exact bytes the signature covers.
func AppendTicketBody(dst []byte, t Ticket) []byte {
	dst = appendI64(dst, t.Player)
	dst = appendI64(dst, t.Worker)
	dst = appendU64(dst, t.Epoch)
	dst = appendI64(dst, t.Issued)
	dst = appendI64(dst, t.Expiry)
	dst = appendU8(dst, t.Transport)
	dst = appendStr(dst, t.Addr)
	dst = appendU32(dst, uint32(len(t.Backups)))
	for _, b := range t.Backups {
		dst = appendStr(dst, b)
	}
	return dst
}

// UnmarshalTicket decodes a session ticket.
func UnmarshalTicket(p []byte) (Ticket, error) {
	b := buffer{b: p}
	var t Ticket
	t.Player = b.ri64()
	t.Worker = b.ri64()
	t.Epoch = b.ru64()
	t.Issued = b.ri64()
	t.Expiry = b.ri64()
	t.Transport = b.ru8()
	t.Addr = b.rstr()
	n := int(b.ru32())
	if b.err != nil {
		return t, b.err
	}
	if n*2 > len(p) {
		return t, fmt.Errorf("proto: ticket backup count exceeds payload")
	}
	if n > 0 {
		t.Backups = make([]string, 0, n)
		for i := 0; i < n; i++ {
			t.Backups = append(t.Backups, b.rstr())
		}
	}
	sig := b.rstr()
	if sig != "" {
		t.Sig = []byte(sig)
	}
	return t, b.finish()
}

// Renew asks the coordinator to extend a player's lease. It rides a TTicket
// frame on the player→coordinator direction (the reply is an ordinary pushed
// ticket). Epoch names the lease being renewed so the coordinator can tell a
// renewal racing a replacement ticket from a renewal of the current lease —
// the freshest epoch always wins.
type Renew struct {
	Player int64
	Epoch  uint64
}

// AppendRenew marshals a lease renewal request into dst and returns the
// extended slice.
func AppendRenew(dst []byte, r Renew) []byte {
	dst = appendI64(dst, r.Player)
	return appendU64(dst, r.Epoch)
}

// UnmarshalRenew decodes a lease renewal request.
func UnmarshalRenew(p []byte) (Renew, error) {
	b := buffer{b: p}
	r := Renew{Player: b.ri64(), Epoch: b.ru64()}
	return r, b.finish()
}

// Sync is the coordinator's downstream beacon to a worker, sent in reply to
// every TRegister and TReport. Workers feed the arrival gaps to a phi
// detector on coordinator silence (entering safe mode when it fires) and use
// Now to estimate clock skew against the coordinator, so lease-expiry checks
// at the worker tolerate drifting clocks.
type Sync struct {
	// Now is the coordinator's clock (offset nanoseconds since its start).
	Now int64
	// LeaseTTL is the deployment's ticket lease duration in nanoseconds;
	// zero disables lease enforcement at the worker.
	LeaseTTL int64
}

// AppendSync marshals a coordinator sync beacon into dst and returns the
// extended slice.
func AppendSync(dst []byte, s Sync) []byte {
	dst = appendI64(dst, s.Now)
	return appendI64(dst, s.LeaseTTL)
}

// UnmarshalSync decodes a coordinator sync beacon.
func UnmarshalSync(p []byte) (Sync, error) {
	b := buffer{b: p}
	s := Sync{Now: b.ri64(), LeaseTTL: b.ri64()}
	return s, b.finish()
}
