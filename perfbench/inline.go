package main

import (
	"fmt"

	"discopop/internal/ir"
)

// inlineModule builds the module the server assembles for an inline nest,
// so the layer replay can run serve-cold's inline jobs too. It mirrors
// server/inline.go statement for statement (the server does not export its
// builder); TestInlineModuleMatchesServer checks that the server analyses
// both the same way.
func inlineModule(name string, nest []kernelSpec) (*ir.Module, error) {
	b := ir.NewBuilder(name)
	var kernels []func(fb *ir.FuncBuilder)
	for ki, k := range nest {
		nn := int64(k.N)
		pfx := fmt.Sprintf("k%d_", ki)
		switch k.Pattern {
		case "doall":
			a := b.GlobalArray(pfx+"a", ir.F64, k.N)
			kernels = append(kernels, func(fb *ir.FuncBuilder) {
				fb.For(pfx+"i", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(a, ir.V(i), ir.Mul(ir.CF(1.5), ir.V(i)))
				})
			})
		case "reduction":
			a := b.GlobalArray(pfx+"a", ir.F64, k.N)
			acc := b.Global(pfx+"sum", ir.F64)
			kernels = append(kernels, func(fb *ir.FuncBuilder) {
				fb.For(pfx+"init", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(a, ir.V(i), ir.Rnd())
				})
				fb.Set(acc, ir.CF(0))
				fb.For(pfx+"i", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.Set(acc, ir.Add(ir.V(acc), ir.At(a, ir.V(i))))
				})
			})
		case "recurrence":
			a := b.GlobalArray(pfx+"a", ir.F64, k.N)
			kernels = append(kernels, func(fb *ir.FuncBuilder) {
				fb.SetAt(a, ir.CI(0), ir.CF(1))
				fb.For(pfx+"i", ir.CI(1), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(a, ir.V(i), ir.Add(ir.At(a, ir.Sub(ir.V(i), ir.CI(1))), ir.CF(1)))
				})
			})
		case "histogram":
			const bins = 32
			data := b.GlobalArray(pfx+"data", ir.F64, k.N)
			hist := b.GlobalArray(pfx+"hist", ir.F64, bins)
			kernels = append(kernels, func(fb *ir.FuncBuilder) {
				bin := fb.Local(pfx+"bin", ir.I64)
				fb.For(pfx+"init", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(data, ir.V(i), ir.Rnd())
				})
				fb.For(pfx+"z", ir.CI(0), ir.CI(bins), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(hist, ir.V(i), ir.CF(0))
				})
				fb.For(pfx+"i", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.Set(bin, ir.Floor(ir.Mul(ir.At(data, ir.V(i)), ir.CI(bins))))
					fb.SetAt(hist, ir.V(bin), ir.Add(ir.At(hist, ir.V(bin)), ir.CF(1)))
				})
			})
		case "stencil":
			in := b.GlobalArray(pfx+"in", ir.F64, k.N)
			out := b.GlobalArray(pfx+"out", ir.F64, k.N)
			kernels = append(kernels, func(fb *ir.FuncBuilder) {
				fb.For(pfx+"init", ir.CI(0), ir.CI(nn), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(in, ir.V(i), ir.Rnd())
				})
				fb.For(pfx+"i", ir.CI(1), ir.CI(nn-1), ir.CI(1), func(i *ir.Var) {
					fb.SetAt(out, ir.V(i), ir.Div(
						ir.Add(ir.At(in, ir.Sub(ir.V(i), ir.CI(1))),
							ir.Add(ir.At(in, ir.V(i)), ir.At(in, ir.Add(ir.V(i), ir.CI(1))))),
						ir.CF(3)))
				})
			})
		default:
			return nil, fmt.Errorf("kernel %d: unknown pattern %q", ki, k.Pattern)
		}
	}
	fb := b.Func("main")
	for _, k := range kernels {
		k(fb)
	}
	return b.Build(fb.Done()), nil
}
