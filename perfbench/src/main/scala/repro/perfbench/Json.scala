package repro.perfbench

/** Minimal JSON rendering for the result lines (no library on purpose:
  * the harness depends on nothing but the code under test). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b.append("\\\"")
      case '\\' => b.append("\\\\")
      case '\n' => b.append("\\n")
      case c if c < ' ' => b.append(f"\\u${c.toInt}%04x")
      case c => b.append(c)
    }
    b.append('"').toString
  }

  /** A non-finite number (the wall time of a failed round, a figure with
    * no samples) renders as null. */
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  /** Render nested Map / Seq / String / numbers / Boolean values. */
  def render(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case s: Iterable[_] => s.map(render).mkString("[", ", ", "]")
    case o => str(o.toString)
  }
}
