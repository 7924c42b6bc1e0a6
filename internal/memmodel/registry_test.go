package memmodel

import (
	"strings"
	"testing"
)

// plainModel is a Model without Prepare; preparedTestModel adds it.
type plainModel struct{ name string }

func (m plainModel) Name() string                 { return m.name }
func (m plainModel) Consistent(x *Execution) bool { return true }

type preparedTestModel struct{ plainModel }

type trueChecker struct{}

func (trueChecker) Consistent(x *Execution) bool { return true }

func (m preparedTestModel) Prepare(sk *Skeleton) Checker {
	return trueChecker{}
}

func TestRegistryLookupNormalization(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(plainModel{name: "x86-TSO"}, LevelX86, "x86")
	for _, key := range []string{"x86-TSO", "x86tso", "X86_TSO", "x86 tso", "x86"} {
		if _, err := r.Lookup(key); err != nil {
			t.Errorf("Lookup(%q): %v", key, err)
		}
	}
}

func TestRegistryUnknownNameError(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(plainModel{name: "x86-TSO"}, LevelX86)
	r.MustRegisterVariant(plainModel{name: "Arm-Cats(original)"}, LevelArm)
	_, err := r.Lookup("no-such-model")
	if err == nil {
		t.Fatal("Lookup of unknown model succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown memory model "no-such-model"`) {
		t.Errorf("error %q lacks the canonical prefix", msg)
	}
	if !strings.Contains(msg, "x86-TSO") || !strings.Contains(msg, "Arm-Cats(original)") {
		t.Errorf("error %q does not list the known models", msg)
	}
}

func TestRegistryDuplicateKeyRejected(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(plainModel{name: "x86-TSO"}, LevelX86)
	if err := r.Register(plainModel{name: "X86_TSO"}, LevelX86); err == nil {
		t.Error("duplicate normalized key accepted")
	}
}

func TestRegistryPreparedDetection(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(plainModel{name: "plain"}, LevelX86)
	r.MustRegister(preparedTestModel{plainModel{name: "prepared"}}, LevelTCG)
	ents := r.Entries()
	if len(ents) != 2 {
		t.Fatalf("got %d entries, want 2", len(ents))
	}
	if ents[0].Prepared {
		t.Error("plain model detected as prepared")
	}
	if !ents[1].Prepared {
		t.Error("prepared model not detected")
	}
}

func TestRegistryForLevelAndVariants(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(plainModel{name: "Arm-Cats"}, LevelArm, "arm")
	r.MustRegisterVariant(plainModel{name: "Arm-Cats(original)"}, LevelArm)
	m, ok := r.ForLevel(LevelArm)
	if !ok || m.Name() != "Arm-Cats" {
		t.Errorf("ForLevel(arm) = %v, %v; want the canonical Arm-Cats", m, ok)
	}
	if _, ok := r.ForLevel(LevelIMM); ok {
		t.Error("ForLevel for an unpopulated level reported ok")
	}
	if got := len(r.Canonical()); got != 1 {
		t.Errorf("Canonical() has %d models, want 1 (variants excluded)", got)
	}
	if _, err := r.Lookup("arm-cats-original"); err != nil {
		t.Errorf("variant not resolvable by name: %v", err)
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range Levels() {
		got, ok := ParseLevel(string(l))
		if !ok || got != l {
			t.Errorf("ParseLevel(%q) = %q, %v", l, got, ok)
		}
	}
	if _, ok := ParseLevel("riscv"); ok {
		t.Error("ParseLevel accepted an unknown level")
	}
}
