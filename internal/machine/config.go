package machine

import (
	"errors"
	"fmt"

	"coopabft/internal/cache"
)

// ErrBadConfig reports an invalid machine configuration; Validate wraps it
// with the specific violation.
var ErrBadConfig = errors.New("machine: bad config")

// Option adjusts a Config under construction.
type Option func(*Config)

// WithL2Divisor shrinks the node to a 1/divisor slice, exactly as
// ScaledConfig does (L2 capacity plus the always-on power terms).
func WithL2Divisor(divisor int) Option {
	return func(c *Config) {
		if divisor <= 1 {
			return
		}
		c.L2.SizeBytes /= divisor
		if c.L2.SizeBytes < c.L2.Ways*cache.LineBytes {
			c.L2.SizeBytes = c.L2.Ways * cache.LineBytes
		}
		d := float64(divisor)
		c.CPU.MaxPowerW /= d
		c.CPU.IdlePowerW /= d
		c.DRAM.BackgroundPowerW /= d
	}
}

// Validate checks the structural invariants the simulator relies on.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if c.CPU.ClockHz <= 0 {
		return fail("clock %v Hz must be positive", c.CPU.ClockHz)
	}
	for _, l := range []struct {
		name string
		cfg  cache.Config
	}{{"L1", c.L1}, {"L2", c.L2}} {
		if l.cfg.Ways <= 0 {
			return fail("%s ways %d must be positive", l.name, l.cfg.Ways)
		}
		min := l.cfg.Ways * cache.LineBytes
		if l.cfg.SizeBytes < min || l.cfg.SizeBytes%min != 0 {
			return fail("%s size %dB must be a positive multiple of ways×line (%dB)",
				l.name, l.cfg.SizeBytes, min)
		}
	}
	if c.DRAM.Channels <= 0 || c.DRAM.DIMMsPerChan <= 0 || c.DRAM.RanksPerDIMM <= 0 || c.DRAM.BanksPerRank <= 0 {
		return fail("DRAM topology must have positive channels/DIMMs/ranks/banks")
	}
	return nil
}
