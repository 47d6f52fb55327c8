(** Proof digests: the hash layer behind §6's proof waves (DESIGN.md
    §15).

    A proof wave compares, for every directed link, the hash of the
    sender's true state against the hash of the receiver's mirror of
    it.  Only {e equality} of the two hashes matters, so any digest
    that is equal exactly when the logical contents (status, init,
    cells) are equal serves — provided both ends of a comparison use
    the same implementation.

    A proof layer owns a fixed number of {e slots}: one proving
    position each, such as a node's own state or one mirror.  Every
    slot memoizes the digest of the last state it proved, keyed by
    {!Ss_core.Trans_state.stamp}, so re-proving an unchanged state
    costs one compare and a stamp hit can never serve a stale digest.
    Two implementations share this interface:

    - {!reference}: the historical path.  The pre-image is the
      [Marshal] dump {!canonical_bytes}, memoized per slot by stamp,
      and hashed with FNV-1a-64 on every call.
    - {!incremental}: the codec path.  The digest is a left fold over
      the cells' codec word images, finished with the height, [init]
      and the status.  Each slot also keeps the fold's prefix values
      for the lineage ({!Ss_core.Trans_state.rep_id}) it last proved.
      The committed prefix of a lineage is write-once, so a stamp
      miss resumes the fold from the longest prefix still valid for
      the state's lineage: an extension by [Δ] cells costs
      [O(Δ · words)], with no buffer, string or [Marshal] involved.
      Only a lineage change (a wipe, a rebuild, a copy-on-write
      divergence, a full-state install) refolds the whole list. *)

type 's t

val reference : slots:int -> 's t
(** [reference ~slots] is the [Marshal] reference layer.  Its digests
    are [Util.fnv1a64 (canonical_bytes st)], so
    [Energy.proof_of_digest ~nonce (digest t slot st)] equals
    [Energy.state_proof ~nonce (canonical_bytes st)].
    @raise Invalid_argument when [slots < 0]. *)

val incremental :
  's Ss_core.Cellpack.codec -> slots:int -> bound:Ss_core.Predicates.bound -> 's t
(** [incremental codec ~slots ~bound] is the resumable codec layer.
    Its digests are native ints widened to [int64].  Because a codec's
    word image is injective ([unpack] inverts [pack]) and the height
    is folded in, two states get equal digests iff they are logically
    equal, up to 63-bit hash collisions.

    Layout: the per-slot memo (stamp, digest, lineage and the height
    its prefix is valid to) is one strided int table, four adjacent
    words per slot.  A slot's prefix values are allocated at its first
    proof: [B + 1] words under [bound = Finite B], so a state within
    the bound never regrows them, and just enough under [Infinite];
    either way they double when a taller state arrives.  [bound]
    sizes storage only; it never changes a digest.
    @raise Invalid_argument when [slots < 0]. *)

val digest : 's t -> int -> 's Ss_core.Trans_state.t -> int64
(** [digest t slot st] is the nonce-free digest of [st], proved at
    [slot].  The value depends only on [st]'s logical content and on
    the implementation, never on which slot proves it or on what the
    slot proved before.  The wire proof of a wave with nonce [k] is
    [Energy.proof_of_digest ~nonce:k (digest t slot st)].
    @raise Invalid_argument when [slot] is out of range. *)

val canonical_bytes : 's Ss_core.Trans_state.t -> string
(** The reference pre-image: a [Marshal] dump ([No_sharing]) of the
    logical snapshot [(status, init, cells)].  Logically equal states
    encode to identical bytes however they were built: backing
    capacity, version stamps and physical sharing never reach the
    wire. *)

val codec_bytes : 's Ss_core.Cellpack.codec -> 's Ss_core.Trans_state.t -> string
(** The codec word image as bytes: a status byte, then [init] and each
    cell as the codec's little-endian 64-bit words.  Two states map to
    equal bytes iff their snapshots are equal.  No run loop uses it:
    it is the readable form of the word stream {!incremental} folds,
    kept for tests. *)
