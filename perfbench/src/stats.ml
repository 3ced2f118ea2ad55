(* Growable int buffer for latency samples. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 1024 0; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let sorted b =
  let a = Array.sub b.a 0 b.n in
  Array.sort compare a;
  a

(* Percentile of integer samples treated as grouped data: each integer
   value v stands for the unit interval [v - 0.5, v + 0.5), and the
   quantile is interpolated inside the interval that holds it.  Unlike a
   nearest-rank percentile it moves when the share of samples at a value
   moves, so a shift inside one round shows.  Returns the interpolated
   value and the number of samples strictly above its interval. *)
let percentile (s : int array) q =
  let n = Array.length s in
  if n = 0 then (0.0, 0)
  else begin
    let target = q *. float_of_int n in
    let i = min (n - 1) (int_of_float target) in
    let v = s.(i) in
    let rec first j = if j > 0 && s.(j - 1) = v then first (j - 1) else j in
    let rec past j = if j < n && s.(j) = v then past (j + 1) else j in
    let lo = first i and hi = past i in
    let frac = (target -. float_of_int lo) /. float_of_int (hi - lo) in
    (float_of_int v -. 0.5 +. frac, n - hi)
  end

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
