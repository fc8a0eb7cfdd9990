package serve

// This file is the wire protocol of the serving path. net/rpc flattens a
// handler's returned error into a bare string, which forced protocol v1
// clients to prefix-match error messages. Protocol v2 fixes that with a
// wire-stable error-code field carried inside the reply (handlers return
// nil so net/rpc actually transmits the reply struct), mapped back to the
// package's typed errors on the client so errors.Is works across the wire.
// Version and capabilities are negotiated with a Hello handshake. The
// server keeps answering the v1 methods, so old clients still work; the
// client speaks v2 only.

import (
	"errors"

	"split/internal/place"
)

// Protocol versions negotiated by Hello.
const (
	// ProtoV1 is the original protocol: Infer/Submit/Wait/Cancel with
	// errors flattened to strings by net/rpc.
	ProtoV1 = 1
	// ProtoV2 adds the Hello handshake, fleet metadata, and the *V2 call
	// variants carrying wire-stable error codes in the reply.
	ProtoV2 = 2
)

// Capability names a v2 server advertises in HelloReply.
const (
	// CapPlacement: the server is a placement-routed device fleet.
	CapPlacement = "placement"
	// CapAsync: Submit/Wait (and their V2 variants) are available.
	CapAsync = "async"
	// CapCancel: client cancellation is available.
	CapCancel = "cancel"
	// CapErrCodes: *V2 replies carry wire-stable error codes.
	CapErrCodes = "error-codes"
)

// HelloArgs opens the handshake with the client's highest supported
// protocol version.
type HelloArgs struct {
	Version int
}

// HelloReply answers with the negotiated version, the server's
// capabilities, and the fleet shape.
type HelloReply struct {
	Version      int
	Capabilities []string
	// Devices is the physical device count; Placement the device-level
	// placement policy. Partition lanes are an implementation detail of the
	// server and never leak into the fleet shape.
	Devices   int
	Placement string
	// Partitions is the spatial-sharing lane count per device (0 or 1 on
	// unpartitioned servers; absent entirely against older servers).
	Partitions int
}

// Hello negotiates the protocol version: the server answers with the
// lower of the two sides' maxima (never below v1) and advertises its
// capabilities.
func (r *Responder) Hello(args HelloArgs, reply *HelloReply) error {
	v := args.Version
	if v > ProtoV2 {
		v = ProtoV2
	}
	if v < ProtoV1 {
		v = ProtoV1
	}
	reply.Version = v
	reply.Capabilities = []string{CapPlacement, CapAsync, CapCancel, CapErrCodes}
	r.srv.mu.Lock()
	reply.Devices = r.srv.eng.Devices()
	reply.Placement = r.srv.eng.Placer().Name()
	if sp, ok := r.srv.eng.Placer().(*place.Spatial); ok {
		reply.Placement = sp.Inner().Name()
		reply.Partitions = sp.Parts()
	}
	r.srv.mu.Unlock()
	return nil
}

// codeToErr maps wire-stable error codes to the package's typed errors.
// The codes deliberately reuse the split_drops_total reason vocabulary, so
// wire errors, metrics and trace details all speak the same labels.
var codeToErr = map[string]error{
	DropNotStarted:   ErrNotStarted,
	DropStopped:      ErrStopped,
	DropUnknownModel: ErrUnknownModel,
	DropQueueFull:    ErrQueueFull,
	DropDeadline:     ErrDeadlineExceeded,
	DropCanceled:     ErrCanceled,
	DropDrained:      ErrDrained,
	DropDeviceFault:  ErrDeviceFault,
	DropAdmission:    ErrAdmissionRejected,
}

// CodeForError returns the wire-stable code for a typed serving error, or
// "" when the error has no code (transport and usage errors travel as
// plain messages).
func CodeForError(err error) string {
	for code, typed := range codeToErr {
		if errors.Is(err, typed) {
			return code
		}
	}
	return ""
}

// ErrorFromCode reconstructs a typed error from a wire code and message:
// the result preserves the remote message verbatim while unwrapping to the
// matching exported error, so errors.Is works across the wire. Unknown
// codes (or "") yield a plain error carrying just the message; an empty
// message with an empty code yields nil.
func ErrorFromCode(code, msg string) error {
	if typed, ok := codeToErr[code]; ok {
		if msg == "" {
			msg = typed.Error()
		}
		return &wireError{code: code, msg: msg, typed: typed}
	}
	if msg == "" {
		return nil
	}
	return errors.New(msg)
}

// wireError is a typed serving error reconstructed on the client side of
// the wire.
type wireError struct {
	code  string
	msg   string
	typed error
}

func (e *wireError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrQueueFull) etc. work on wire errors.
func (e *wireError) Unwrap() error { return e.typed }

// WireError is the error representation carried inside v2 replies. An
// empty Code with an empty Msg means success; net/rpc only transmits the
// reply struct when the handler returns nil, which is why v2 handlers
// never return the serving error directly.
type WireError struct {
	Code string
	Msg  string
}

// toWire converts a handler error for transport.
func toWire(err error) WireError {
	if err == nil {
		return WireError{}
	}
	return WireError{Code: CodeForError(err), Msg: err.Error()}
}

// InferV2Reply is InferReply plus the wire-coded error.
type InferV2Reply struct {
	Reply InferReply
	Err   WireError
}

// InferV2 is protocol v2 Infer: the serving outcome, success or typed
// failure, travels in the reply so the error code survives the wire.
func (r *Responder) InferV2(args InferArgs, reply *InferV2Reply) error {
	reply.Err = toWire(r.Infer(args, &reply.Reply))
	return nil
}

// SubmitV2Reply is SubmitReply plus the wire-coded error.
type SubmitV2Reply struct {
	Reply SubmitReply
	Err   WireError
}

// SubmitV2 is protocol v2 Submit.
func (r *Responder) SubmitV2(args InferArgs, reply *SubmitV2Reply) error {
	reply.Err = toWire(r.Submit(args, &reply.Reply))
	return nil
}

// WaitV2 is protocol v2 Wait.
func (r *Responder) WaitV2(args WaitArgs, reply *InferV2Reply) error {
	reply.Err = toWire(r.Wait(args, &reply.Reply))
	return nil
}
