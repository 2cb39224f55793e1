type path = Graph.node list

let always_usable (_ : Graph.link) = true

let bfs g ?(usable = always_usable) src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int and parent = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (_, l, far) ->
        if usable l && dist.(far) = max_int then begin
          dist.(far) <- dist.(v) + 1;
          parent.(far) <- v;
          Queue.add far q
        end)
      (Graph.ports g v)
  done;
  (dist, parent)

let reconstruct parent src dst =
  let rec go acc v = if v = src then src :: acc else go (v :: acc) parent.(v) in
  if dst = src then Some [ src ]
  else if parent.(dst) < 0 then None
  else Some (go [] dst)

let shortest_path g ?usable src dst =
  let _, parent = bfs g ?usable src in
  reconstruct parent src dst

let path_links g = function
  | [] | [ _ ] -> []
  | path ->
    let rec go acc = function
      | a :: (b :: _ as rest) ->
        (match Graph.link_between g a b with
         | Some id -> go (id :: acc) rest
         | None ->
           invalid_arg
             (Printf.sprintf "Paths.path_links: %d and %d are not adjacent" a b))
      | _ -> List.rev acc
    in
    go [] path

let is_connected g =
  Graph.n_nodes g = 0 || Array.for_all (fun d -> d <> max_int) (fst (bfs g 0))
