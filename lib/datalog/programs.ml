let non_2_colorability =
  Parser.parse ~goal:"Q"
    {|
      P(X, Y) :- E(X, Y).
      P(X, Y) :- P(X, Z), E(Z, W), E(W, Y).
      Q :- P(X, X).
    |}
