//! Minimal blocking client for the `VRW1` protocol.
//!
//! One socket, one [`FrameDecoder`], strictly serial request/response
//! — exactly what the replay harness, the smoke tests, and an oracle
//! checker need. Correlation ids are minted monotonically per client;
//! replies echo them, so a caller can assert it got the answer to the
//! question it asked.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use vr_net::RouteUpdate;
use vr_net::VnId;

use crate::frame::{encode_into, encode_lookup_request, encode_update_batch, Message, WireError};
use crate::FrameDecoder;

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.write_all(bytes),
            #[cfg(unix)]
            Conn::Uds(s) => s.write_all(bytes),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(timeout),
        }
    }
}

/// A blocking `VRW1` client over TCP or a Unix-domain socket.
pub struct WireClient {
    conn: Conn,
    decoder: FrameDecoder,
    /// The frame being sent, reused by every [`Self::send`]: the
    /// caller's CPU pays no per-frame allocation or regrowth.
    encode_buf: Vec<u8>,
    /// The socket read chunk, reused by every [`Self::recv`] (no 16 KiB
    /// zero-fill per call).
    read_buf: Box<[u8]>,
    next_id: u64,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("next_id", &self.next_id)
            .field("buffered", &self.decoder.buffered())
            .finish()
    }
}

impl WireClient {
    /// Connects over TCP.
    ///
    /// # Errors
    /// Connection failure.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_conn(Conn::Tcp(stream)))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    /// Connection failure.
    #[cfg(unix)]
    pub fn connect_uds<P: AsRef<std::path::Path>>(path: P) -> io::Result<Self> {
        Ok(Self::from_conn(Conn::Uds(UnixStream::connect(path)?)))
    }

    fn from_conn(conn: Conn) -> Self {
        Self {
            conn,
            decoder: FrameDecoder::new(),
            encode_buf: Vec::new(),
            read_buf: vec![0u8; 16 * 1024].into_boxed_slice(),
            next_id: 1,
        }
    }

    /// Bounds every subsequent [`Self::recv`]; `None` blocks forever.
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    fn mint_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// Socket write failure.
    pub fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        self.send_with(|out| encode_into(msg, out))
    }

    /// Sends the one frame `encode` appends to the reused buffer.
    fn send_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        self.encode_buf.clear();
        encode(&mut self.encode_buf);
        self.conn.write_all(&self.encode_buf)?;
        Ok(())
    }

    /// Blocks until the next complete frame arrives.
    ///
    /// # Errors
    /// Socket failure, clean server close (`Protocol`), or a framing
    /// error in the server's stream.
    pub fn recv(&mut self) -> Result<Message, WireError> {
        loop {
            if let Some(msg) = self.decoder.next_message()? {
                return Ok(msg);
            }
            match self.conn.read_some(&mut self.read_buf) {
                Ok(0) => return Err(WireError::Protocol("connection closed by server")),
                Ok(n) => self.decoder.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }

    /// Sends `msg` and returns the next reply frame.
    ///
    /// # Errors
    /// Any [`Self::send`] / [`Self::recv`] failure.
    pub fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
        self.send(msg)?;
        self.recv()
    }

    /// Looks a packet batch up. The reply is normally
    /// [`Message::LookupResponse`], but under load shed it is
    /// [`Message::Overloaded`] — callers must match.
    ///
    /// # Errors
    /// Transport or framing failure.
    pub fn lookup(&mut self, packets: &[(VnId, u32)]) -> Result<Message, WireError> {
        let id = self.mint_id();
        self.send_with(|out| encode_lookup_request(id, packets, out))?;
        self.recv()
    }

    /// Submits a route-update batch; replies with
    /// [`Message::UpdateAck`], [`Message::Overloaded`], or
    /// [`Message::ErrorReply`].
    ///
    /// # Errors
    /// Transport or framing failure.
    pub fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<Message, WireError> {
        let id = self.mint_id();
        self.send_with(|out| encode_update_batch(id, updates, out))?;
        self.recv()
    }

    /// Round-trips a ping; returns the echoed correlation id.
    ///
    /// # Errors
    /// Transport failure, or a non-pong reply.
    pub fn ping(&mut self) -> Result<u64, WireError> {
        let id = self.mint_id();
        match self.request(&Message::Ping { id })? {
            Message::Pong { id: echoed } if echoed == id => Ok(echoed),
            _ => Err(WireError::Protocol("expected matching pong")),
        }
    }
}
