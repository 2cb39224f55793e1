type path = Graph.node list

let always_usable (_ : Graph.link) = true

(* The one breadth-first search.  The FIFO is an int array: each node is
   enqueued at most once, when it is discovered.  [usable] is asked only
   about a link to an undiscovered node; since it is pure, skipping the
   other questions cannot change which port a node is first discovered
   over, so every distance, parent and port-order tie-break is the plain
   search's.  A node's parent is fixed when it is discovered, so the
   search may stop there once it discovers [stop] (-1: never). *)
let search g ~usable src ~stop =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int and parent = Array.make n (-1) in
  let queue = Array.make n src in
  dist.(src) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(v) + 1 and degree = Graph.degree g v in
    let p = ref 0 in
    while !p < degree do
      let far = Graph.far g v !p in
      if dist.(far) = max_int && usable (Graph.link_at g v !p) then begin
        dist.(far) <- d;
        parent.(far) <- v;
        queue.(!tail) <- far;
        incr tail;
        if far = stop then begin
          p := degree;
          head := !tail
        end
      end;
      incr p
    done
  done;
  (dist, parent)

let bfs g ?(usable = always_usable) src = search g ~usable src ~stop:(-1)

let shortest_path g ?(usable = always_usable) src dst =
  if dst = src then Some [ src ]
  else begin
    let _, parent = search g ~usable src ~stop:dst in
    let rec go acc v = if v = src then src :: acc else go (v :: acc) parent.(v) in
    if parent.(dst) < 0 then None else Some (go [] dst)
  end

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
