package task

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ray/internal/resources"
	"ray/internal/testutil/roundtrip"
	"ray/internal/types"
)

func sampleSpec() *Spec {
	return &Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		ParentTask: types.NewTaskID(),
		Function:   "update_policy",
		Args: []Arg{
			ValueArg([]byte("hello")),
			RefArg(types.NewObjectID()),
			ValueArg(nil),
			RefArg(types.NewObjectID()),
		},
		NumReturns: 2,
		Resources:  resources.NewRequest(map[string]float64{resources.CPU: 1, resources.GPU: 2}),
	}
}

func TestSpecMarshalRoundTrip(t *testing.T) {
	s := sampleSpec()
	data := s.Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != s.ID || back.Driver != s.Driver || back.ParentTask != s.ParentTask {
		t.Fatal("ids did not round trip")
	}
	if back.Function != s.Function || back.NumReturns != s.NumReturns {
		t.Fatal("function/returns did not round trip")
	}
	if len(back.Args) != len(s.Args) {
		t.Fatalf("args length %d != %d", len(back.Args), len(s.Args))
	}
	for i := range s.Args {
		if back.Args[i].Kind != s.Args[i].Kind || !bytes.Equal(back.Args[i].Value, s.Args[i].Value) || back.Args[i].Ref != s.Args[i].Ref {
			t.Fatalf("arg %d did not round trip: %+v vs %+v", i, back.Args[i], s.Args[i])
		}
	}
	if back.Resources.Get(resources.CPU) != 1 || back.Resources.Get(resources.GPU) != 2 {
		t.Fatalf("resources did not round trip: %v", back.Resources)
	}
}

// Every field of a spec survives Marshal/Unmarshal, a field added later
// included. Args (a tagged union) and Resources (unexported) are hand-built.
func TestSpecRoundTripsEveryField(t *testing.T) {
	args := []Arg{ValueArg([]byte("v")), RefArg(types.NewObjectID())}
	res := resources.NewRequest(map[string]float64{resources.CPU: 2.25})
	roundtrip.Check(t, (*Spec).Marshal, Unmarshal, args, res)
}

func TestActorSpecRoundTrip(t *testing.T) {
	s := sampleSpec()
	s.ActorID = types.NewActorID()
	s.ActorCreation = false
	s.ActorCounter = 42
	s.PreviousActorTask = types.NewTaskID()
	back, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.ActorID != s.ActorID || back.ActorCounter != 42 || back.PreviousActorTask != s.PreviousActorTask || back.ActorCreation {
		t.Fatalf("actor fields did not round trip: %+v", back)
	}
	if !back.IsActorTask() {
		t.Fatal("IsActorTask must be true")
	}
	s2 := sampleSpec()
	if s2.IsActorTask() {
		t.Fatal("stateless spec must not be an actor task")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for truncated input")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	// A count the record cannot back is refused, not allocated for: the
	// argument count sits behind the magic, four IDs and the function name.
	hostile := sampleSpec().Marshal()
	binary.BigEndian.PutUint32(hostile[4+4*16+4+len(sampleSpec().Function):], 0xFFFFFFFF)
	if _, err := Unmarshal(hostile); err == nil {
		t.Fatal("expected error for an argument count larger than the record")
	}
	// Corrupt a valid encoding by truncation at every prefix length.
	data := sampleSpec().Marshal()
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Unmarshal(data[:cut]); err == nil && cut < len(data) {
			t.Fatalf("expected error for truncation at %d", cut)
		}
	}
}

// Property: Marshal/Unmarshal round-trips random specs.
func TestSpecRoundTripProperty(t *testing.T) {
	f := func(fn string, nargs uint8, returns uint8, cpu uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Spec{
			ID:         types.NewTaskID(),
			Driver:     types.NewDriverID(),
			Function:   fn,
			NumReturns: int(returns % 8),
			Resources:  resources.CPUs(float64(cpu % 16)),
		}
		for i := 0; i < int(nargs%16); i++ {
			if rng.Intn(2) == 0 {
				b := make([]byte, rng.Intn(64))
				rng.Read(b)
				s.Args = append(s.Args, ValueArg(b))
			} else {
				s.Args = append(s.Args, RefArg(types.NewObjectID()))
			}
		}
		s.Resources = s.Resources.Add(resources.NewRequest(map[string]float64{"node7": float64(seed & 1), resources.GPU: 0.5}))
		data := s.Marshal()
		// One exactly sized buffer, and the same bytes when appended in place
		// behind a containing record's header.
		if len(data) != s.EncodedLen() || cap(data) != len(data) {
			return false
		}
		if framed := s.AppendTo([]byte("hdr")); !bytes.Equal(framed, append([]byte("hdr"), data...)) {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if back.Function != s.Function || back.NumReturns != s.NumReturns || len(back.Args) != len(s.Args) {
			return false
		}
		if back.Resources.String() != s.Resources.String() || !bytes.Equal(back.Marshal(), data) {
			return false
		}
		return reflect.DeepEqual(back.Dependencies(), s.Dependencies())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReturnsDeterministic(t *testing.T) {
	s := sampleSpec()
	r1, r2 := s.Returns(), s.Returns()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Returns must be deterministic")
	}
	if len(r1) != s.NumReturns {
		t.Fatalf("expected %d returns, got %d", s.NumReturns, len(r1))
	}
	if r1[0] == r1[1] {
		t.Fatal("distinct return slots must have distinct ids")
	}
}

func TestDependenciesOnlyRefs(t *testing.T) {
	s := sampleSpec()
	deps := s.Dependencies()
	if len(deps) != 2 {
		t.Fatalf("expected 2 ref deps, got %d", len(deps))
	}
	if s.String() == "" {
		t.Fatal("String must be non-empty")
	}
}
