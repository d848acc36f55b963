package exp

import (
	"testing"

	"r3dla/internal/isa"
	"r3dla/internal/workloads"
)

func TestFingerprintSensitivity(t *testing.T) {
	train, _ := workloads.ByName("mcf").Build(TrainSeed)
	other, _ := workloads.ByName("libq").Build(TrainSeed)
	base := ProgramFingerprint(train, other)
	if ProgramFingerprint(train, other) != base {
		t.Fatal("ProgramFingerprint not deterministic")
	}
	if ProgramFingerprint(other, train) == base {
		t.Error("ProgramFingerprint ignores program order")
	}
	mutated := *train
	mutated.Insts = append([]isa.Inst(nil), train.Insts...)
	mutated.Insts[0].Imm++
	if ProgramFingerprint(&mutated, other) == base {
		t.Error("ProgramFingerprint ignores instruction changes")
	}
}
