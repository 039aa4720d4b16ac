package worker

import (
	"context"
	"strings"
	"testing"

	"ray/internal/codec"
	"ray/internal/types"
)

// The contract that cannot hold by construction fails loudly instead: a body
// that writes through a borrowed argument — a function, an actor constructor
// or an actor method — gets error objects naming it and the argument, and is
// counted as an application error. Only a -race build pays for the check,
// so only a -race build runs this.
func TestWriteThroughBorrowedArgumentFailsLoudly(t *testing.T) {
	if !raceEnabled {
		t.Skip("argument buffers are digested only in -race builds")
	}
	env := newEnv(t, 0)
	scribble := func(args [][]byte) error {
		var view []byte
		if err := codec.DecodeBorrowed(args[1], &view); err != nil {
			return err
		}
		view[0] ^= 0xFF
		return nil
	}
	if err := env.registry.Register("scribble", func(_ *TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(true)}, scribble(args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.registry.RegisterActorClass("Scribbler", func(_ *TaskContext, args [][]byte) (any, error) {
		var write bool
		if err := codec.Decode(args[0], &write); err != nil || !write {
			return &struct{}{}, err
		}
		return &struct{}{}, scribble(args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.registry.RegisterActorMethod("Scribbler", "scribble", MethodSpec{NumArgs: 2, Impl: func(_ *TaskContext, _ any, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(true)}, scribble(args)
	}}); err != nil {
		t.Fatal(err)
	}

	ctx := env.ctx()
	original := []byte("shared with every reader on the node")
	input, err := ctx.Put(original)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure := func(what string, id types.ObjectID, function string) {
		t.Helper()
		var done bool
		err := ctx.Get(id, &done)
		if err == nil || !strings.Contains(err.Error(), types.ErrArgumentMutated.Error()) ||
			!strings.Contains(err.Error(), function+" wrote to argument 1") {
			t.Fatalf("%s: Get = %v, want %v naming %s and argument 1", what, err, types.ErrArgumentMutated, function)
		}
	}

	future, err := ctx.Call1("scribble", CallOptions{}, false, input)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure("function", future, "scribble")

	// An inline argument is the spec's buffer: just as shared (lineage replays
	// the spec), just as checked.
	future, err = ctx.Call1("scribble", CallOptions{}, false, original)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure("function, inline argument", future, "scribble")

	bad, err := ctx.CreateActor("Scribbler", CallOptions{}, true, input)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure("constructor", types.ReturnObjectID(bad.creation, 0), "Scribbler")

	good, err := ctx.CreateActor("Scribbler", CallOptions{}, false, input)
	if err != nil {
		t.Fatal(err)
	}
	future, err = ctx.CallActor1(good, "scribble", CallOptions{}, false, input)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure("method", future, "scribble")

	if got := env.pool.Stats().AppErrors; got != 4 {
		t.Fatalf("AppErrors = %d, want 4", got)
	}
}

// A raw function's returned buffer is handed over, not copied: the stored
// object is that buffer. It need not be fresh — one buffer returned by two
// calls is two equal, readable objects, because objects are immutable.
func TestStoreAdoptsWhatATaskReturns(t *testing.T) {
	env := newEnv(t, 0)
	result := codec.MustEncode([]byte("the same buffer on every call"))
	if err := env.registry.Register("constant", func(*TaskContext, [][]byte) ([][]byte, error) {
		return [][]byte{result}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := env.ctx()
	for call := 0; call < 2; call++ {
		future, err := ctx.Call1("constant", CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := env.pool.objects.Local().Wait(context.Background(), future)
		if err != nil {
			t.Fatal(err)
		}
		if &obj.Data[0] != &result[0] || len(obj.Data) != len(result) {
			t.Fatalf("call %d: the store copied the returned buffer instead of adopting it", call)
		}
		var got []byte
		if err := ctx.Get(future, &got); err != nil || string(got) != "the same buffer on every call" {
			t.Fatalf("call %d: Get = %q, %v", call, got, err)
		}
	}
}
