package serve

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"testing"

	"split/internal/place"
)

// exportedWireErrors is every typed serving error a client can receive.
// New exported errors must be added here (and to codeToErr) so the
// round-trip test keeps covering all of them.
var exportedWireErrors = []error{
	ErrNotStarted,
	ErrStopped,
	ErrUnknownModel,
	ErrQueueFull,
	ErrDeadlineExceeded,
	ErrCanceled,
	ErrDrained,
	ErrDeviceFault,
	ErrAdmissionRejected,
}

// TestWireCodeRoundTripEveryError: every exported error must survive a
// wire round trip — CodeForError then ErrorFromCode — under errors.Is,
// preserving the remote message.
func TestWireCodeRoundTripEveryError(t *testing.T) {
	if len(codeToErr) != len(exportedWireErrors) {
		t.Fatalf("codeToErr has %d codes, %d exported errors", len(codeToErr), len(exportedWireErrors))
	}
	seen := make(map[string]bool)
	for _, typed := range exportedWireErrors {
		code := CodeForError(typed)
		if code == "" {
			t.Fatalf("no wire code for %v", typed)
		}
		if seen[code] {
			t.Fatalf("wire code %q assigned twice", code)
		}
		seen[code] = true
		msg := typed.Error() + " (request 7)"
		back := ErrorFromCode(code, msg)
		if !errors.Is(back, typed) {
			t.Errorf("code %q: errors.Is lost across the wire (got %v)", code, back)
		}
		if back.Error() != msg {
			t.Errorf("code %q: message %q != %q", code, back.Error(), msg)
		}
		if got := CodeForError(fmt.Errorf("wrapped: %w", typed)); got != code {
			t.Errorf("wrapped %v maps to %q, want %q", typed, got, code)
		}
	}
	if err := ErrorFromCode("", ""); err != nil {
		t.Errorf("empty code+msg should be nil, got %v", err)
	}
	if err := ErrorFromCode("bogus_code", "boom"); err == nil || err.Error() != "boom" {
		t.Errorf("unknown code should pass the message through, got %v", err)
	}
	if code := CodeForError(errors.New("some transport error")); code != "" {
		t.Errorf("untyped error got code %q", code)
	}
}

// TestHelloNegotiation: Dial negotiates v2 against a new server and the
// handshake advertises the fleet shape and capabilities.
func TestHelloNegotiation(t *testing.T) {
	srv, _, _ := startLifecycle(t,
		WithDevices(2),
		WithPlacement(place.LeastLoaded),
	)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Proto() != ProtoV2 {
		t.Errorf("negotiated proto %d, want %d", c.Proto(), ProtoV2)
	}
	for _, cap := range []string{CapPlacement, CapAsync, CapCancel, CapErrCodes} {
		if !c.Has(cap) {
			t.Errorf("capability %q not advertised", cap)
		}
	}
	if devs, pol := c.Fleet(); devs != 2 || pol != place.LeastLoaded {
		t.Errorf("fleet = (%d, %q)", devs, pol)
	}

	// An old client asking for v1 gets v1, and an over-eager version is
	// clamped to the server's maximum.
	raw, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hello HelloReply
	if err := raw.Call("SPLIT.Hello", HelloArgs{Version: ProtoV1}, &hello); err != nil || hello.Version != ProtoV1 {
		t.Errorf("Hello(v1) = %+v, %v", hello, err)
	}
	if err := raw.Call("SPLIT.Hello", HelloArgs{Version: 99}, &hello); err != nil || hello.Version != ProtoV2 {
		t.Errorf("Hello(99) = %+v, %v", hello, err)
	}
}

// TestProtoV2TypedErrorsAcrossWire: against a v2 server the client's
// errors satisfy errors.Is for the typed serving errors.
func TestProtoV2TypedErrorsAcrossWire(t *testing.T) {
	srv, _, _ := startLifecycle(t,
		WithMaxQueue(1),
		WithTimeScale(10), // stretch solo to 300ms so the queue stays stable
	)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Infer("nosuch"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", err)
	}

	if _, err := c.Submit("solo", 0); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	queued, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer("quick"); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-cap arrival: %v", err)
	}
	if _, err := c.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(queued); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled request: %v", err)
	}
}

// v1Responder exposes only the protocol v1 surface of a Responder — it
// stands in for an old server build in interop tests.
type v1Responder struct {
	inner *Responder
}

func (r *v1Responder) Infer(args InferArgs, reply *InferReply) error {
	return r.inner.Infer(args, reply)
}
func (r *v1Responder) Submit(args InferArgs, reply *SubmitReply) error {
	return r.inner.Submit(args, reply)
}
func (r *v1Responder) Wait(args WaitArgs, reply *InferReply) error { return r.inner.Wait(args, reply) }
func (r *v1Responder) Cancel(args CancelArgs, reply *CancelReply) error {
	return r.inner.Cancel(args, reply)
}

// startV1Server serves srv's scheduling machinery behind a v1-only RPC
// surface on its own listener and returns that listener's address.
func startV1Server(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				rs := rpc.NewServer()
				if err := rs.RegisterName("SPLIT", &v1Responder{inner: newResponder(srv)}); err != nil {
					conn.Close()
					return
				}
				rs.ServeConn(conn)
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestDialRequiresHandshake: a server without the Hello handshake (a
// protocol v1 build) is refused at Dial instead of being spoken to in a
// degraded protocol.
func TestDialRequiresHandshake(t *testing.T) {
	srv, _, _ := startLifecycle(t)
	if c, err := Dial(startV1Server(t, srv)); err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a server without Hello")
	}
}

// TestInteropOldClientNewServer: a raw net/rpc client speaking only
// protocol v1 works unchanged against a new server, including the stable
// error-message prefixes it relies on.
func TestInteropOldClientNewServer(t *testing.T) {
	srv, _, _ := startLifecycle(t, WithDevices(2))
	raw, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var reply InferReply
	if err := raw.Call("SPLIT.Infer", InferArgs{Model: "quick"}, &reply); err != nil || reply.Model != "quick" {
		t.Errorf("old client infer: %+v, %v", reply, err)
	}
	err = raw.Call("SPLIT.Infer", InferArgs{Model: "nosuch"}, &reply)
	if err == nil || !strings.HasPrefix(err.Error(), ErrUnknownModel.Error()) {
		t.Errorf("old client error message changed: %v", err)
	}
}
