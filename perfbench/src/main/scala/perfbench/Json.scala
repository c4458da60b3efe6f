package perfbench

/** Minimal JSON writer for the benchmark's result lines: maps (insertion
  * ordered), sequences, strings, booleans and numbers.
  */
object Json {
  def write(v: Any): String = v match {
    case null                  => "null"
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float              => write(f.toDouble)
    case n: Number             => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]       => xs.iterator.map(write).mkString("[", ",", "]")
    case other                 => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
