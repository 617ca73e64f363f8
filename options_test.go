package ftfft_test

import (
	"math"
	"strings"
	"testing"

	"ftfft"
)

// TestOptionValidationUniform is the construction-time audit: every option's
// invalid range must be rejected by New with one uniform error shape
// ("ftfft: invalid ..."), before any plan state is built.
func TestOptionValidationUniform(t *testing.T) {
	shared, err := ftfft.NewExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    int
		opts []ftfft.Option
	}{
		{"zero size", 0, nil},
		{"negative size", -4, nil},
		{"negative ranks", 64, []ftfft.Option{ftfft.WithRanks(-1)}},
		{"negative eta scale", 64, []ftfft.Option{ftfft.WithEtaScale(-0.5)}},
		{"NaN eta scale", 64, []ftfft.Option{ftfft.WithEtaScale(math.NaN())}},
		{"negative retries", 64, []ftfft.Option{ftfft.WithMaxRetries(-1)}},
		{"negative workers", 64, []ftfft.Option{ftfft.WithWorkers(-2)}},
		{"workers and executor together", 64, []ftfft.Option{ftfft.WithWorkers(2), ftfft.WithExecutor(shared)}},
		{"nil executor", 64, []ftfft.Option{ftfft.WithExecutor(nil)}},
		{"negative shape", 64, []ftfft.Option{ftfft.WithDims(8, -8)}},
		{"zero shape row", 64, []ftfft.Option{ftfft.WithDims(0, 64)}},
		{"shape size mismatch", 64, []ftfft.Option{ftfft.WithDims(16, 8)}},
		{"shape mismatch with ranks", 100, []ftfft.Option{ftfft.WithDims(8, 8), ftfft.WithRanks(2)}},
		{"empty dims", 64, []ftfft.Option{ftfft.WithDims()}},
		{"zero dims axis", 64, []ftfft.Option{ftfft.WithDims(8, 0, 8)}},
		{"negative dims axis", 64, []ftfft.Option{ftfft.WithDims(-8, -8)}},
		{"dims product mismatch", 100, []ftfft.Option{ftfft.WithDims(8, 8)}},
		{"dims product short", 64, []ftfft.Option{ftfft.WithDims(2, 2)}},
		{"dims product overflow", 64, []ftfft.Option{ftfft.WithDims(1<<30, 1<<30, 1<<30)}},
		{"unknown tuning mode", 64, []ftfft.Option{ftfft.WithTuning(ftfft.TuningMode(99))}},
		{"negative tuning mode", 64, []ftfft.Option{ftfft.WithTuning(ftfft.TuningMode(-1))}},
		{"negative batch window", 64, []ftfft.Option{ftfft.WithBatchWindow(-1)}},
		{"oversized batch window", 64, []ftfft.Option{ftfft.WithBatchWindow(5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ftfft.New(tc.n, tc.opts...)
			if err == nil {
				t.Fatalf("New accepted %s (got %T)", tc.name, tr)
			}
			if !strings.HasPrefix(err.Error(), "ftfft: invalid") {
				t.Fatalf("non-uniform validation error: %q (want \"ftfft: invalid ...\")", err)
			}
		})
	}

	// The zero value of every option is valid and means "default".
	for _, tc := range []struct {
		name string
		opts []ftfft.Option
	}{
		{"zero ranks", []ftfft.Option{ftfft.WithRanks(0)}},
		{"zero eta scale", []ftfft.Option{ftfft.WithEtaScale(0)}},
		{"zero retries", []ftfft.Option{ftfft.WithMaxRetries(0)}},
		{"zero workers", []ftfft.Option{ftfft.WithWorkers(0)}},
		{"one-axis dims", []ftfft.Option{ftfft.WithDims(64)}},
		{"multi-axis dims", []ftfft.Option{ftfft.WithDims(4, 4, 4)}},
		{"dims with unit axes", []ftfft.Option{ftfft.WithDims(1, 64, 1)}},
		{"zero tuning mode", []ftfft.Option{ftfft.WithTuning(ftfft.TuneEstimate)}},
		{"zero batch window", []ftfft.Option{ftfft.WithBatchWindow(0)}},
		{"batch window on sequential plan", []ftfft.Option{ftfft.WithBatchWindow(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ftfft.New(64, tc.opts...); err != nil {
				t.Fatalf("zero-value option rejected: %v", err)
			}
		})
	}
}

func TestNewExecutorValidation(t *testing.T) {
	for _, workers := range []int{0, -1} {
		if _, err := ftfft.NewExecutor(workers); err == nil {
			t.Errorf("NewExecutor(%d) accepted", workers)
		} else if !strings.HasPrefix(err.Error(), "ftfft: invalid") {
			t.Errorf("non-uniform error: %q", err)
		}
	}
}
