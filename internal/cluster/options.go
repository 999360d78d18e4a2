package cluster

import "shiftedmirror/internal/raid"

// Option mutates a Config: what Open applies, in order, to a zero
// Config before New. The shiftedmirror facade's options are Options
// that set Config fields directly; this package names only the one
// every caller needs.
type Option func(*Config)

// WithGeometry sets the element size in bytes and the stripe count.
func WithGeometry(elementSize int64, stripes int) Option {
	return func(c *Config) {
		c.ElementSize = elementSize
		c.Stripes = stripes
	}
}

// Open builds a Volume over the architecture and backend address map
// using functional options — the option-first counterpart of New.
func Open(arch *raid.Mirror, backends map[raid.DiskID]string, opts ...Option) (*Volume, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return New(arch, backends, cfg)
}
