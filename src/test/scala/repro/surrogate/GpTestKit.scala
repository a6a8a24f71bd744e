package repro.surrogate

/** Test-side shorthands for binding kernels and fitting GPs, built from
  * the same parts as [[GpState]]. */
object GpTestKit {
  /** `k` bound to the training points `xs`, as a [[GpState]] binds its
    * kernels. */
  def rows(k: MixedKernel, xs: Array[Array[Double]]): KernelRows = {
    val x = Columns.empty(k, xs.length)
    xs.indices.foreach(p => x.set(p, xs(p), k))
    new KernelRows(k, x, xs.length)
  }

  /** One GP per target in `yss`, all fitted together on `xs` from a fresh
    * state, so GPs that select the same lengthscale share its factor. */
  def fitAll(xs: Array[Array[Double]], yss: Seq[Array[Double]], kernelOf: Double => MixedKernel,
             noise: Double = 1e-4): Vector[Gp] =
    new GpState(kernelOf, noise).update(xs)(identity).fit(yss)
}
